//! An example reaching the fixture crate through the umbrella crate's
//! re-export, as the workspace examples write `eadrl::core::EaDrl`.

fn main() {
    println!("{}", eadrl::mini::roots::from_example());
}
