//! One module per paper table/figure, plus ablations.

pub mod ablations;
pub mod context;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod table1;

pub use context::Ctx;
