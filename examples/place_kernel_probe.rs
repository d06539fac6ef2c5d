//! CPU-support probe for the batched RUSH placement kernels.
//!
//! ```text
//! cargo run --release -p farm-experiments --example place_kernel_probe -- avx512
//! ```
//!
//! Exits 0 when the named kernel can run on this host, 2 when the CPU
//! lacks the required ISA (the CI placement-kernel matrix treats 2 as
//! "skip with a notice" — any other failure still fails the job), and 1
//! on a malformed kernel name. With no argument, prints every kernel
//! with its support status and the one runtime dispatch would pick.

use farm_placement::kernel::Kernel;

fn main() {
    let arg = std::env::args().nth(1);
    let Some(name) = arg else {
        for k in Kernel::ALL {
            println!(
                "{:<8} {}",
                k.name(),
                if k.supported() {
                    "supported"
                } else {
                    "unsupported"
                }
            );
        }
        println!("detected {}", Kernel::detect());
        return;
    };
    let Some(k) = Kernel::parse(&name) else {
        eprintln!(
            "unknown kernel {name:?}; expected one of: {}",
            Kernel::ALL.map(|k| k.name()).join(", ")
        );
        std::process::exit(1);
    };
    if k.supported() {
        println!("{k} supported");
    } else {
        eprintln!("{k} unsupported on this host");
        std::process::exit(2);
    }
}
