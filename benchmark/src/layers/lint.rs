//! `sepra-lint`, through the gate a server applies before it binds.

use super::{engine, server, Fixtures, Probe};

/// `lint.gate_us`: the `sepra check` gate on the workload's own program.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let qp = engine::load(&fx.own.source())?;
    let (gate_us, verdict) = p.time("lint", "gate", 5, || server::lint_gate(&qp));
    verdict?;
    p.put("lint.gate_us", gate_us, "us");
    Ok(())
}
