//! `sepra-wal`: the delta and snapshot codecs, the log, checkpoints, and
//! recovery reads.

use std::path::Path;

use sepra_ast::Interner;
use sepra_storage::{Database, EdbDelta};
use sepra_wal::{codec, read_recovery, DurableStore, FsyncPolicy, Recovery};

use super::{engine, Fixtures, Probe};
use crate::gen;
use crate::net;
use crate::stats;

pub fn encode_delta(delta: &EdbDelta, interner: &Interner) -> Vec<u8> {
    codec::encode_delta(delta, interner)
}

pub fn decode_delta(bytes: &[u8], interner: &mut Interner) -> Result<EdbDelta, String> {
    codec::decode_delta(bytes, interner).map_err(|e| format!("decode delta: {e}"))
}

pub fn encode_checkpoint(db: &Database) -> Vec<u8> {
    codec::encode_database_columnar(db)
}

pub fn decode_checkpoint(body: &[u8], db: &mut Database) -> Result<u64, String> {
    codec::decode_snapshot_into(body, db).map_err(|e| format!("decode checkpoint: {e}"))
}

pub fn open_store(dir: &Path, policy: FsyncPolicy) -> Result<DurableStore, String> {
    DurableStore::open(dir, policy).map(|(store, _)| store).map_err(|e| format!("open store: {e}"))
}

pub fn recovery(dir: &Path) -> Result<Recovery, String> {
    read_recovery(dir).map_err(|e| format!("read recovery: {e}"))
}

/// The encoded deltas of the first `count` script mutations over
/// `source`, with the generation each commit reached.
pub fn script_payloads(
    source: &str,
    seed: u64,
    nodes: usize,
    count: usize,
) -> Result<Vec<(u64, Vec<u8>)>, String> {
    let mut qp = engine::ready(source)?;
    (0..count)
        .map(|k| {
            let out = engine::apply_mutation(&mut qp, &gen::mutation(seed, nodes, k))?;
            Ok((qp.db().generation(), encode_delta(&out.delta, qp.db().interner())))
        })
        .collect()
}

const RECORDS: usize = 200;

/// Pinned to the served tree and its write script. Codec:
/// `wal.encode_delta_us`, `wal.checkpoint_encode_us`,
/// `wal.checkpoint_decode_us`, `wal.checkpoint_bytes`. Log:
/// `wal.append_us` (policy `never`), `wal.fsync_us` (`always` minus
/// `never`), `wal.bytes_per_record` (exact). Checkpoint file:
/// `wal.checkpoint_write_us`. Recovery read: `wal.replay_us_per_record`
/// (read the directory back and decode every record; applying them is
/// `repl.apply_us_per_record`).
pub fn probe(fx: &Fixtures, p: &mut Probe) -> Result<(), String> {
    let source = fx.tree.source();
    let nodes = gen::tree_nodes(gen::TREE_ARITY, gen::TREE_DEPTH);
    let mut qp = engine::ready(&source)?;
    let mut encode = Vec::new();
    let mut payloads = Vec::new();
    for k in 0..RECORDS {
        let out = engine::apply_mutation(&mut qp, &gen::mutation(fx.seed, nodes, k))?;
        p.tracer.next_op();
        let (ns, payload) = p
            .tracer
            .span_ns("wal", "encode_delta", || encode_delta(&out.delta, qp.db().interner()));
        encode.push(ns);
        payloads.push((qp.db().generation(), payload));
    }
    p.put("wal.encode_delta_us", stats::us(stats::median(&mut encode)), "us");

    let append = |p: &mut Probe, name: &'static str, policy| -> Result<(u64, f64), String> {
        let dir = net::fresh_dir(&fx.run_dir, name)?;
        let mut store = open_store(&dir, policy)?;
        let before = store.wal_bytes();
        let mut ns = Vec::new();
        for (generation, payload) in &payloads {
            p.tracer.next_op();
            let (span, out) =
                p.tracer.span_ns("wal", name, || store.append_delta(*generation, payload));
            out.map_err(|e| format!("append: {e}"))?;
            ns.push(span);
        }
        store.sync().map_err(|e| format!("sync: {e}"))?;
        let per_record = (store.wal_bytes() - before) as f64 / payloads.len() as f64;
        Ok((stats::median(&mut ns), per_record))
    };
    let (never_ns, bytes_per_record) = append(p, "append_never", FsyncPolicy::Never)?;
    let (always_ns, _) = append(p, "append_always", FsyncPolicy::Always)?;
    p.put("wal.append_us", stats::us(never_ns), "us");
    p.put("wal.fsync_us", stats::us(always_ns.saturating_sub(never_ns)), "us");
    p.put("wal.bytes_per_record", bytes_per_record, "bytes");

    // Reading the `never` directory back: scan the log, decode every record.
    let dir = fx.run_dir.join("append_never");
    let (replay_us, decoded) = p.time("wal", "read_recovery", 5, || -> Result<usize, String> {
        let recovered = recovery(&dir)?;
        let mut interner = qp.db().interner().clone();
        for record in &recovered.records {
            decode_delta(&record.payload, &mut interner)?;
        }
        Ok(recovered.records.len())
    });
    if decoded? != RECORDS {
        return Err("recovery did not read every appended record back".into());
    }
    p.put("wal.replay_us_per_record", replay_us / RECORDS as f64, "us");

    let (encode_us, body) = p.time("wal", "checkpoint_encode", 5, || encode_checkpoint(qp.db()));
    p.put("wal.checkpoint_encode_us", encode_us, "us");
    p.put("wal.checkpoint_bytes", body.len() as f64, "bytes");
    let (decode_us, decoded) =
        p.time("wal", "checkpoint_decode", 5, || decode_checkpoint(&body, &mut Database::new()));
    decoded?;
    p.put("wal.checkpoint_decode_us", decode_us, "us");
    let dir = net::fresh_dir(&fx.run_dir, "checkpoint_write")?;
    let mut store = open_store(&dir, FsyncPolicy::Always)?;
    let mut generation = qp.db().generation();
    let (write_us, written) = p.time("wal", "checkpoint_write", 5, || {
        generation += 1;
        store.checkpoint(generation, &body)
    });
    written.map_err(|e| format!("checkpoint: {e}"))?;
    p.put("wal.checkpoint_write_us", write_us, "us");
    Ok(())
}
