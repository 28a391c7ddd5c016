//! `sepra-strata`: stratification of a parsed program.

use sepra_ast::{Interner, Program};

use super::{ast, Fixtures, Probe};

pub fn stratify(program: &Program) -> Result<usize, String> {
    sepra_strata::stratify(program).map(|s| s.len()).map_err(|e| format!("stratify: {e:?}"))
}

/// `strata.stratify_us`, on the workload's own rules.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let program = ast::parse_program(&fx.own.rules, &mut Interner::new())?;
    let (stratify_us, strata) = p.time("strata", "stratify", 50, || stratify(&program));
    strata?;
    p.put("strata.stratify_us", stratify_us, "us");
    Ok(())
}
