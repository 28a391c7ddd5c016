//! `sepra-ast`: program and query parsing.

use sepra_ast::{Interner, Program};

use super::{Fixtures, Probe};
use crate::stats;

pub fn parse_program(src: &str, interner: &mut Interner) -> Result<Program, String> {
    sepra_ast::parse_program(src, interner).map_err(|e| format!("parse program: {e}"))
}

/// `ast.parse_program_us` and `ast.parse_query_us`, both on the workload's
/// own text. The query number comes from the replay, where queries parse
/// through the processor, in its symbol space, the way the server parses
/// them.
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let source = fx.own.source();
    let (program_us, parsed) =
        p.time("ast", "parse_program", 5, || parse_program(&source, &mut Interner::new()));
    parsed?;
    p.put("ast.parse_program_us", program_us, "us");
    let mut parse_query = p.tracer.durations("ast", "parse_query");
    p.put("ast.parse_query_us", stats::us(stats::median(&mut parse_query)), "us");
    Ok(())
}
