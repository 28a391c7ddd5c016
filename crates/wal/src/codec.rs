//! Self-contained binary frames for tuples, deltas, and EDB snapshots.
//!
//! Interned [`Sym`] ids are meaningless outside the process that interned
//! them, so every frame carries its own **string table**: the symbol names
//! it mentions, each once. Values then reference table indices. Encoding
//! resolves symbols through the writer's [`Interner`]; decoding interns
//! the names into the reader's — the two processes never need to agree on
//! ids, only on names.
//!
//! All integers are little-endian. A frame is *total to decode*: any byte
//! string either decodes or returns a [`CodecError`] — never a panic and
//! never an attempt to allocate more than the input could possibly
//! describe. (WAL records are additionally CRC-guarded, but checkpoint
//! files handed to `sepra restore` come from users, so the codec defends
//! itself.)
//!
//! ```text
//! string table  := u32 count, count × (u32 len, len UTF-8 bytes)
//! value         := 0x00 u32 table-index        (symbol)
//!                | 0x01 i64                    (integer)
//! tuple         := arity × value               (arity from the section header)
//! section       := u32 npreds, npreds × (u32 name-index, u32 arity,
//!                                        u32 ntuples, ntuples × tuple)
//! delta frame   := string table, remove section, insert section
//! edb frame     := u64 generation, string table, u32 nrels,
//!                  nrels × (u32 name-index, u32 arity, u64 ntuples,
//!                           ntuples × tuple)
//! ```
//!
//! # Columnar EDB frames (`SEPRCOL2`)
//!
//! The row-major EDB frame above decodes tuple by tuple. The columnar
//! frame instead lays relations out as fixed-width column sections behind
//! an offset directory, so a reader can bulk-load whole columns from a
//! byte slice (or a memory-mapped file — every section is 8-byte aligned
//! and addressed by offset) without per-tuple decode:
//!
//! ```text
//! columnar frame := "SEPRCOL2",                            (offset  0)
//!                   u64 generation,                        (offset  8)
//!                   u64 string-table-offset,               (offset 16)
//!                   u32 nrels, u32 reserved (zero),        (offset 24)
//!                   nrels × (u32 name-index, u32 arity,    (offset 32)
//!                            u64 nrows, u64 col-offset),
//!                   column sections,
//!                   string table                           (at string-table-offset)
//! value word     := bit 63 set  → 63-bit integer (storage representation)
//!                 | bit 63 clear → string-table index in the low 32 bits,
//!                                  bits 32..63 zero
//! ```
//!
//! A relation's section is `arity × nrows` little-endian `u64` words,
//! column-major: column 0's `nrows` words, then column 1's, and so on.
//! The string table (same encoding as above) sits *last* so the
//! fixed-width sections keep their alignment; predicate names are
//! interned first and occupy the low indices. Both frame kinds are
//! distinguishable from the first eight bytes — a row-major frame starts
//! with its generation, which would have to exceed 3.6 × 10¹⁸ commits to
//! collide with the magic — so [`decode_snapshot_into`] sniffs and
//! dispatches, which is what keeps mixed-version replication rollouts
//! working: a new reader accepts either body, an old reader fails cleanly
//! on the container version (see [`crate::checkpoint`]).

use sepra_ast::{Interner, Sym};
use sepra_storage::{Database, EdbDelta, FxHashMap, Relation, Tuple, Value};

/// Errors decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the frame did.
    Truncated {
        /// What was being read when bytes ran out.
        what: &'static str,
    },
    /// An unknown value tag byte.
    BadTag(u8),
    /// A string-table index out of range.
    BadStringIndex {
        /// The out-of-range index.
        index: u32,
        /// The table size.
        table: usize,
    },
    /// A string-table entry was not UTF-8.
    BadUtf8,
    /// An integer value outside the storable range.
    IntOutOfRange(i64),
    /// Trailing bytes after a complete frame (a sign the caller framed the
    /// payload wrong, not that the data is corrupt).
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what } => write!(f, "frame truncated while reading {what}"),
            CodecError::BadTag(t) => write!(f, "unknown value tag {t:#04x}"),
            CodecError::BadStringIndex { index, table } => {
                write!(f, "string index {index} out of range for table of {table}")
            }
            CodecError::BadUtf8 => write!(f, "string table entry is not valid UTF-8"),
            CodecError::IntOutOfRange(n) => {
                write!(f, "integer {n} is outside the representable range")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked reader over a byte slice.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(self.u64(what)? as i64)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// A claimed element count is a lie if the remaining input could not
    /// hold even `min_bytes_each` bytes per element; checking first keeps
    /// hostile counts from driving huge allocations.
    fn plausible(
        &self,
        count: usize,
        min_bytes_each: usize,
        what: &'static str,
    ) -> Result<(), CodecError> {
        if count.checked_mul(min_bytes_each).is_none_or(|need| need > self.remaining()) {
            return Err(CodecError::Truncated { what });
        }
        Ok(())
    }
}

fn push_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Builds a frame's string table while encoding: symbols are assigned
/// dense indices in first-use order.
struct StringTable<'a> {
    interner: &'a Interner,
    index: FxHashMap<Sym, u32>,
    names: Vec<&'a str>,
}

impl<'a> StringTable<'a> {
    fn new(interner: &'a Interner) -> Self {
        StringTable { interner, index: FxHashMap::default(), names: Vec::new() }
    }

    fn intern(&mut self, sym: Sym) -> u32 {
        if let Some(&i) = self.index.get(&sym) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(self.interner.resolve(sym));
        self.index.insert(sym, i);
        i
    }

    fn encode(&self, out: &mut Vec<u8>) {
        push_u32(out, self.names.len() as u32);
        for name in &self.names {
            push_u32(out, name.len() as u32);
            out.extend_from_slice(name.as_bytes());
        }
    }
}

fn decode_string_table(
    cur: &mut Cursor<'_>,
    interner: &mut Interner,
) -> Result<Vec<Sym>, CodecError> {
    let count = cur.u32("string table size")? as usize;
    cur.plausible(count, 4, "string table")?;
    let mut syms = Vec::with_capacity(count);
    for _ in 0..count {
        let len = cur.u32("string length")? as usize;
        let bytes = cur.take(len, "string bytes")?;
        let name = std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?;
        syms.push(interner.intern(name));
    }
    Ok(syms)
}

const TAG_SYM: u8 = 0;
const TAG_INT: u8 = 1;

fn encode_value(out: &mut Vec<u8>, value: Value, table: &mut StringTable<'_>) {
    if let Some(n) = value.as_int() {
        out.push(TAG_INT);
        push_u64(out, n as u64);
    } else {
        let sym = value.as_sym().expect("a value is a symbol or an integer");
        out.push(TAG_SYM);
        push_u32(out, table.intern(sym));
    }
}

fn decode_value(cur: &mut Cursor<'_>, syms: &[Sym]) -> Result<Value, CodecError> {
    match cur.u8("value tag")? {
        TAG_SYM => {
            let index = cur.u32("symbol index")?;
            let sym = syms
                .get(index as usize)
                .copied()
                .ok_or(CodecError::BadStringIndex { index, table: syms.len() })?;
            Ok(Value::sym(sym))
        }
        TAG_INT => {
            let n = cur.i64("integer value")?;
            Value::int(n).map_err(|_| CodecError::IntOutOfRange(n))
        }
        tag => Err(CodecError::BadTag(tag)),
    }
}

fn decode_tuple(cur: &mut Cursor<'_>, arity: usize, syms: &[Sym]) -> Result<Tuple, CodecError> {
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(decode_value(cur, syms)?);
    }
    Ok(Tuple::from(values))
}

/// Encodes one section (the remove or insert half of a delta). Predicates
/// are sorted by name so the encoding is deterministic regardless of hash
/// map iteration order.
fn encode_section(
    out: &mut Vec<u8>,
    half: &FxHashMap<Sym, Vec<Tuple>>,
    table: &mut StringTable<'_>,
) {
    let mut preds: Vec<Sym> =
        half.iter().filter(|(_, ts)| !ts.is_empty()).map(|(&p, _)| p).collect();
    preds.sort_by_key(|&p| table.interner.resolve(p));
    push_u32(out, preds.len() as u32);
    for pred in preds {
        let tuples = &half[&pred];
        let arity = tuples.first().map_or(0, Tuple::arity);
        push_u32(out, table.intern(pred));
        push_u32(out, arity as u32);
        push_u32(out, tuples.len() as u32);
        for tuple in tuples {
            for &value in tuple.values() {
                encode_value(out, value, table);
            }
        }
    }
}

fn decode_section(
    cur: &mut Cursor<'_>,
    syms: &[Sym],
) -> Result<FxHashMap<Sym, Vec<Tuple>>, CodecError> {
    let npreds = cur.u32("section predicate count")? as usize;
    cur.plausible(npreds, 12, "section predicates")?;
    let mut half = FxHashMap::default();
    for _ in 0..npreds {
        let index = cur.u32("predicate name index")?;
        let pred = syms
            .get(index as usize)
            .copied()
            .ok_or(CodecError::BadStringIndex { index, table: syms.len() })?;
        let arity = cur.u32("predicate arity")? as usize;
        let count = cur.u32("tuple count")? as usize;
        // Zero-arity tuples occupy no input, so the byte-plausibility
        // check cannot bound their count — but a set-valued zero-arity
        // predicate holds at most the empty tuple, so bound it directly
        // (a hostile huge count must not drive a huge allocation).
        if arity == 0 {
            if count > 1 {
                return Err(CodecError::Truncated { what: "section tuples" });
            }
        } else {
            cur.plausible(count, arity, "section tuples")?;
        }
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            tuples.push(decode_tuple(cur, arity, syms)?);
        }
        half.entry(pred).or_insert_with(Vec::new).extend(tuples);
    }
    Ok(half)
}

/// Encodes an [`EdbDelta`] as a self-contained frame. Symbols are
/// resolved through `interner` (the writer's symbol space); the frame
/// carries their names.
pub fn encode_delta(delta: &EdbDelta, interner: &Interner) -> Vec<u8> {
    let mut table = StringTable::new(interner);
    let mut body = Vec::new();
    encode_section(&mut body, &delta.remove, &mut table);
    encode_section(&mut body, &delta.insert, &mut table);
    let mut out = Vec::with_capacity(body.len() + 64);
    table.encode(&mut out);
    out.extend_from_slice(&body);
    out
}

/// Decodes a delta frame, interning its names into `interner` (the
/// reader's symbol space).
pub fn decode_delta(bytes: &[u8], interner: &mut Interner) -> Result<EdbDelta, CodecError> {
    let mut cur = Cursor::new(bytes);
    // The string table precedes the sections that reference it, but the
    // sections were *encoded* first (the table fills as values are
    // interned) — so the encoder emits table-then-body and the decoder
    // reads in the same order.
    let syms = decode_string_table(&mut cur, interner)?;
    let remove = decode_section(&mut cur, &syms)?;
    let insert = decode_section(&mut cur, &syms)?;
    if cur.remaining() != 0 {
        return Err(CodecError::TrailingBytes(cur.remaining()));
    }
    Ok(EdbDelta { remove, insert })
}

/// Encodes a whole EDB (every relation plus the commit generation) as a
/// self-contained frame — the checkpoint body and the `sepra dump`
/// payload.
pub fn encode_database(db: &Database) -> Vec<u8> {
    let interner = db.interner();
    let mut table = StringTable::new(interner);
    let mut body = Vec::new();
    let mut rels: Vec<(Sym, &sepra_storage::Relation)> = db.relations().collect();
    rels.sort_by_key(|&(p, _)| interner.resolve(p));
    push_u32(&mut body, rels.len() as u32);
    for (pred, rel) in rels {
        push_u32(&mut body, table.intern(pred));
        push_u32(&mut body, rel.arity() as u32);
        push_u64(&mut body, rel.len() as u64);
        for tuple in rel.iter() {
            for value in tuple.values() {
                encode_value(&mut body, value, &mut table);
            }
        }
    }
    let mut out = Vec::with_capacity(body.len() + 64);
    push_u64(&mut out, db.generation());
    table.encode(&mut out);
    out.extend_from_slice(&body);
    out
}

/// Decodes an EDB frame into `db` (inserting every fact, interning names
/// into `db`'s symbol space) and returns the frame's commit generation.
///
/// The caller decides what the generation means: recovery forces the
/// database counter to it ([`Database::force_generation`]).
pub fn decode_database_into(bytes: &[u8], db: &mut Database) -> Result<u64, CodecError> {
    let (generation, delta) = decode_database_as_inserts(bytes, db.interner_mut())?;
    // All-or-none: `apply_delta` validates arities up front, so a corrupt
    // frame cannot leave half an EDB behind.
    db.apply_delta(&delta).map_err(|e| match e {
        // An EDB frame with two arities for one predicate is corrupt
        // input, not an I/O failure; surface it as a decode error.
        sepra_storage::database::DatabaseError::ArityMismatch { .. } => {
            CodecError::Truncated { what: "consistent relation arities" }
        }
        sepra_storage::database::DatabaseError::NonGroundFact(_)
        | sepra_storage::database::DatabaseError::Value(_) => {
            CodecError::Truncated { what: "well-formed facts" }
        }
    })?;
    Ok(generation)
}

/// Decodes a row-major EDB frame as an insert-only [`EdbDelta`] against
/// `interner`, returning the frame's commit generation alongside: the
/// half of [`decode_database_into`] that reads bytes.
fn decode_database_as_inserts(
    bytes: &[u8],
    interner: &mut Interner,
) -> Result<(u64, EdbDelta), CodecError> {
    let mut cur = Cursor::new(bytes);
    let generation = cur.u64("snapshot generation")?;
    let syms = decode_string_table(&mut cur, interner)?;
    let nrels = cur.u32("relation count")? as usize;
    cur.plausible(nrels, 16, "relations")?;
    let mut delta = EdbDelta::default();
    for _ in 0..nrels {
        let index = cur.u32("relation name index")?;
        let pred = syms
            .get(index as usize)
            .copied()
            .ok_or(CodecError::BadStringIndex { index, table: syms.len() })?;
        let arity = cur.u32("relation arity")? as usize;
        let count = cur.u64("relation tuple count")? as usize;
        // See `decode_section`: a zero-arity relation holds at most the
        // empty tuple, so its count is bounded directly, not by bytes.
        if arity == 0 {
            if count > 1 {
                return Err(CodecError::Truncated { what: "relation tuples" });
            }
        } else {
            cur.plausible(count, arity, "relation tuples")?;
        }
        let mut tuples = Vec::with_capacity(count);
        for _ in 0..count {
            tuples.push(decode_tuple(&mut cur, arity, &syms)?);
        }
        delta.insert.entry(pred).or_insert_with(Vec::new).extend(tuples);
    }
    if cur.remaining() != 0 {
        return Err(CodecError::TrailingBytes(cur.remaining()));
    }
    Ok((generation, delta))
}

/// The magic that opens a columnar EDB frame (see the module docs).
pub const COLUMNAR_MAGIC: [u8; 8] = *b"SEPRCOL2";

/// Fixed columnar header: magic, generation, string-table offset, nrels,
/// reserved.
const COLUMNAR_HEADER: usize = 8 + 8 + 8 + 4 + 4;

/// One columnar directory entry: name index, arity, row count, column
/// section offset.
const COLUMNAR_DIR_ENTRY: usize = 4 + 4 + 8 + 8;

/// The storage tag bit of an integer value word (mirrors
/// `sepra_storage::value`; symbols are re-indexed through the string
/// table, so only the integer tag survives on the wire).
const COLUMNAR_INT_BIT: u64 = 1 << 63;

fn encode_word(value: Value, table: &mut StringTable<'_>) -> u64 {
    if value.as_int().is_some() {
        // The storage representation already is "bit 63 set, 63-bit
        // payload" — ship it verbatim.
        value.raw()
    } else {
        let sym = value.as_sym().expect("a value is a symbol or an integer");
        u64::from(table.intern(sym))
    }
}

fn decode_word(w: u64, syms: &[Sym]) -> Result<Value, CodecError> {
    if w & COLUMNAR_INT_BIT != 0 {
        // Sign-extend the 63-bit payload; the result always fits, so the
        // range error is unreachable on any 8-byte word.
        let n = ((w << 1) as i64) >> 1;
        Value::int(n).map_err(|_| CodecError::IntOutOfRange(n))
    } else {
        if w >> 32 != 0 {
            return Err(CodecError::Truncated { what: "columnar symbol word" });
        }
        let index = w as u32;
        let sym = syms
            .get(index as usize)
            .copied()
            .ok_or(CodecError::BadStringIndex { index, table: syms.len() })?;
        Ok(Value::sym(sym))
    }
}

/// Encodes a whole EDB as a columnar frame (see the module docs) — the
/// checkpoint body written by servers on the current format version.
pub fn encode_database_columnar(db: &Database) -> Vec<u8> {
    let interner = db.interner();
    let mut table = StringTable::new(interner);
    let mut rels: Vec<(Sym, &Relation)> = db.relations().collect();
    rels.sort_by_key(|&(p, _)| interner.resolve(p));

    let dir_end = COLUMNAR_HEADER + rels.len() * COLUMNAR_DIR_ENTRY;
    let col_bytes: usize = rels.iter().map(|(_, r)| r.arity() * r.len() * 8).sum();
    let string_table_offset = dir_end + col_bytes;

    let mut out = Vec::with_capacity(string_table_offset + 64);
    out.extend_from_slice(&COLUMNAR_MAGIC);
    push_u64(&mut out, db.generation());
    push_u64(&mut out, string_table_offset as u64);
    push_u32(&mut out, rels.len() as u32);
    push_u32(&mut out, 0); // reserved

    // Directory first: predicate names are interned before any symbol
    // word, so they occupy the low string-table indices.
    let mut col_offset = dir_end;
    for (pred, rel) in &rels {
        push_u32(&mut out, table.intern(*pred));
        push_u32(&mut out, rel.arity() as u32);
        push_u64(&mut out, rel.len() as u64);
        push_u64(&mut out, col_offset as u64);
        col_offset += rel.arity() * rel.len() * 8;
    }
    debug_assert_eq!(col_offset, string_table_offset);

    for (_, rel) in &rels {
        for c in 0..rel.arity() {
            for &value in rel.column(c) {
                push_u64(&mut out, encode_word(value, &mut table));
            }
        }
    }
    debug_assert_eq!(out.len(), string_table_offset);
    table.encode(&mut out);
    out
}

/// Decodes an EDB snapshot of *either* format into `db`, returning the
/// frame's commit generation: the first eight bytes pick the decoder.
/// Every snapshot consumer (recovery, `sepra restore`, a replica's
/// cold-sync applier) goes through this, so new readers accept old
/// frames and vice versa never needs to hold.
pub fn decode_snapshot_into(bytes: &[u8], db: &mut Database) -> Result<u64, CodecError> {
    if bytes.len() >= 8 && bytes[..8] == COLUMNAR_MAGIC {
        decode_database_columnar_into(bytes, db)
    } else {
        decode_database_into(bytes, db)
    }
}

/// Decodes a columnar EDB frame into `db` (bulk-adopting each relation's
/// columns, interning names into `db`'s symbol space) and returns the
/// frame's commit generation. All-or-none like [`decode_database_into`]:
/// arities are validated across the whole frame (and against `db`) before
/// anything is installed.
pub fn decode_database_columnar_into(bytes: &[u8], db: &mut Database) -> Result<u64, CodecError> {
    let truncated = |what: &'static str| CodecError::Truncated { what };
    if bytes.len() < COLUMNAR_HEADER || bytes[..8] != COLUMNAR_MAGIC {
        return Err(truncated("columnar snapshot header"));
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let generation = word(8);
    let nrels = u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes")) as usize;
    // bytes[28..32] is reserved; this reader ignores it.

    let sto = usize::try_from(word(16)).map_err(|_| truncated("string table offset"))?;
    if sto < COLUMNAR_HEADER || sto > bytes.len() || sto % 8 != 0 {
        return Err(truncated("string table offset"));
    }
    let dir_end = nrels
        .checked_mul(COLUMNAR_DIR_ENTRY)
        .and_then(|n| n.checked_add(COLUMNAR_HEADER))
        .filter(|&end| end <= sto)
        .ok_or(truncated("relation directory"))?;

    // The string table sits last in the frame but decodes first, so
    // symbol words resolve while columns stream.
    let mut cur = Cursor::new(&bytes[sto..]);
    let syms = decode_string_table(&mut cur, db.interner_mut())?;
    if cur.remaining() != 0 {
        return Err(CodecError::TrailingBytes(cur.remaining()));
    }

    let mut decoded: Vec<(Sym, Relation)> = Vec::with_capacity(nrels);
    for i in 0..nrels {
        let at = COLUMNAR_HEADER + i * COLUMNAR_DIR_ENTRY;
        let index = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let pred = syms
            .get(index as usize)
            .copied()
            .ok_or(CodecError::BadStringIndex { index, table: syms.len() })?;
        let arity = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        let nrows = usize::try_from(word(at + 8)).map_err(|_| truncated("relation row count"))?;
        let col_offset =
            usize::try_from(word(at + 16)).map_err(|_| truncated("relation column offset"))?;
        if arity == 0 {
            // Zero-arity sections occupy no bytes, so the span check below
            // cannot bound their row count — bound it directly (a set-
            // valued nullary relation holds at most the empty tuple).
            if nrows > 1 {
                return Err(truncated("relation rows"));
            }
            let (rel, _) = Relation::from_columns(0, Vec::new(), nrows, false);
            decoded.push((pred, rel));
            continue;
        }
        let section = arity
            .checked_mul(nrows)
            .and_then(|n| n.checked_mul(8))
            .ok_or(truncated("relation columns"))?;
        if col_offset < dir_end
            || col_offset % 8 != 0
            || col_offset.checked_add(section).is_none_or(|end| end > sto)
        {
            return Err(truncated("relation columns"));
        }
        let mut columns = Vec::with_capacity(arity);
        for c in 0..arity {
            let start = col_offset + c * nrows * 8;
            let mut col = Vec::with_capacity(nrows);
            for r in 0..nrows {
                col.push(decode_word(word(start + r * 8), &syms)?);
            }
            columns.push(col);
        }
        // `from_columns` dedups if the section repeats a row, so a
        // hostile frame cannot plant duplicates behind the probe table.
        let (rel, _duplicates) = Relation::from_columns(arity, columns, nrows, false);
        decoded.push((pred, rel));
    }

    // All-or-none: validate every arity (across the frame and against
    // `db`) before installing anything, so a corrupt frame cannot leave
    // half an EDB behind.
    let mut arities: FxHashMap<Sym, usize> = FxHashMap::default();
    for (pred, rel) in &decoded {
        let expected =
            arities.get(pred).copied().or_else(|| db.relation(*pred).map(Relation::arity));
        if expected.is_some_and(|a| a != rel.arity()) {
            return Err(truncated("consistent relation arities"));
        }
        arities.insert(*pred, rel.arity());
    }
    for (pred, rel) in decoded {
        db.install_relation(pred, rel).map_err(|_| truncated("consistent relation arities"))?;
    }
    Ok(generation)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.load_fact_text("e(a, b). e(b, c). age(a, 42). age(b, -7). flag.").unwrap();
        db
    }

    /// Renders every fact of a database as sorted `pred(v, ...)` strings —
    /// an id-free fingerprint for comparing databases across interners.
    fn fingerprint(db: &Database) -> Vec<String> {
        let mut out: Vec<String> = db
            .relations()
            .flat_map(|(p, rel)| {
                let name = db.interner().resolve(p).to_string();
                rel.iter()
                    .map(move |t| format!("{name}{}", t.display(db.interner())))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn database_roundtrip_across_interners() {
        let db = sample_db();
        let bytes = encode_database(&db);
        // The receiving database has a *different* symbol space: intern
        // some unrelated names first so ids cannot accidentally line up.
        let mut other = Database::new();
        other.intern("zebra");
        other.intern("b");
        let generation = decode_database_into(&bytes, &mut other).unwrap();
        assert_eq!(generation, db.generation());
        assert_eq!(fingerprint(&other), fingerprint(&db));
    }

    #[test]
    fn delta_roundtrip_across_interners() {
        let mut db = sample_db();
        let e = db.intern("e");
        let age = db.intern("age");
        let x = Value::sym(db.intern("x"));
        let y = Value::sym(db.intern("y"));
        let mut delta = EdbDelta::default();
        delta.insert.insert(e, vec![Tuple::from([x, y])]);
        delta.remove.insert(age, vec![Tuple::from([x, Value::int(-42).unwrap()])]);
        let bytes = encode_delta(&delta, db.interner());

        let mut other = Interner::new();
        other.intern("unrelated");
        let decoded = decode_delta(&bytes, &mut other).unwrap();
        assert_eq!(decoded.len(), delta.len());
        let e2 = other.get("e").unwrap();
        let age2 = other.get("age").unwrap();
        assert_eq!(decoded.insert[&e2].len(), 1);
        assert_eq!(decoded.insert[&e2][0].display(&other).to_string(), "(x, y)");
        assert_eq!(decoded.remove[&age2][0].display(&other).to_string(), "(x, -42)");
    }

    #[test]
    fn empty_delta_roundtrips() {
        let mut interner = Interner::new();
        let bytes = encode_delta(&EdbDelta::default(), &interner);
        let decoded = decode_delta(&bytes, &mut interner).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn truncation_never_panics() {
        let db = sample_db();
        let bytes = encode_database(&db);
        for len in 0..bytes.len() {
            let mut fresh = Database::new();
            assert!(decode_database_into(&bytes[..len], &mut fresh).is_err(), "prefix {len}");
        }
        let mut delta = EdbDelta::default();
        let mut db = sample_db();
        let e = db.intern("e");
        delta.insert.insert(e, vec![Tuple::from([Value::int(1).unwrap(), Value::int(2).unwrap()])]);
        let bytes = encode_delta(&delta, db.interner());
        for len in 0..bytes.len() {
            let mut interner = Interner::new();
            assert!(decode_delta(&bytes[..len], &mut interner).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn hostile_counts_are_rejected_without_huge_allocations() {
        // A frame claiming 2^32-1 strings of any size must fail fast.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut interner = Interner::new();
        assert!(matches!(decode_delta(&bytes, &mut interner), Err(CodecError::Truncated { .. })));
        // Same for a relation claiming u64::MAX tuples.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u64.to_le_bytes()); // generation
        bytes.extend_from_slice(&1u32.to_le_bytes()); // 1 string
        bytes.extend_from_slice(&1u32.to_le_bytes()); // len 1
        bytes.push(b'p');
        bytes.extend_from_slice(&1u32.to_le_bytes()); // 1 relation
        bytes.extend_from_slice(&0u32.to_le_bytes()); // name idx
        bytes.extend_from_slice(&2u32.to_le_bytes()); // arity
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // tuple count
        let mut db = Database::new();
        assert!(matches!(decode_database_into(&bytes, &mut db), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn hostile_zero_arity_counts_are_rejected() {
        // Zero-arity tuples occupy no input bytes, so the byte-based
        // plausibility check cannot bound them — a hostile frame claiming
        // u32::MAX nullary tuples must still fail fast, not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes()); // 1 string
        bytes.extend_from_slice(&4u32.to_le_bytes()); // len 4
        bytes.extend_from_slice(b"flag");
        bytes.extend_from_slice(&1u32.to_le_bytes()); // remove: 1 pred
        bytes.extend_from_slice(&0u32.to_le_bytes()); // name idx
        bytes.extend_from_slice(&0u32.to_le_bytes()); // arity 0
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // tuple count
        let mut interner = Interner::new();
        assert!(matches!(decode_delta(&bytes, &mut interner), Err(CodecError::Truncated { .. })));

        // Same through the EDB-frame path (`sepra restore`, `:load`).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u64.to_le_bytes()); // generation
        bytes.extend_from_slice(&1u32.to_le_bytes()); // 1 string
        bytes.extend_from_slice(&4u32.to_le_bytes()); // len 4
        bytes.extend_from_slice(b"flag");
        bytes.extend_from_slice(&1u32.to_le_bytes()); // 1 relation
        bytes.extend_from_slice(&0u32.to_le_bytes()); // name idx
        bytes.extend_from_slice(&0u32.to_le_bytes()); // arity 0
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // tuple count
        let mut db = Database::new();
        assert!(matches!(decode_database_into(&bytes, &mut db), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn zero_arity_facts_still_roundtrip() {
        // `flag` sorts last in sample_db's relations, so its (empty)
        // tuple sits at the very end of the frame with zero bytes after
        // the count — the arity-0 guard must not reject that.
        let db = sample_db();
        let bytes = encode_database(&db);
        let mut fresh = Database::new();
        decode_database_into(&bytes, &mut fresh).unwrap();
        assert_eq!(fingerprint(&fresh), fingerprint(&db));

        let mut db = sample_db();
        let flag = db.intern("flag");
        let mut delta = EdbDelta::default();
        let empty = || Tuple::from(Vec::<Value>::new());
        delta.insert.insert(flag, vec![empty()]);
        let bytes = encode_delta(&delta, db.interner());
        let mut other = Interner::new();
        let decoded = decode_delta(&bytes, &mut other).unwrap();
        let flag2 = other.get("flag").unwrap();
        assert_eq!(decoded.insert[&flag2], vec![empty()]);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut interner = Interner::new();
        let mut bytes = encode_delta(&EdbDelta::default(), &interner);
        bytes.push(0);
        assert!(matches!(decode_delta(&bytes, &mut interner), Err(CodecError::TrailingBytes(1))));
    }

    #[test]
    fn encoding_is_deterministic() {
        // Two databases with the same facts interned in different orders
        // encode to identical bytes (predicates sorted by name, tuples in
        // relation insertion order).
        let db1 = sample_db();
        let mut db2 = Database::new();
        db2.intern("noise1");
        db2.intern("noise2");
        db2.load_fact_text("e(a, b). e(b, c). age(a, 42). age(b, -7). flag.").unwrap();
        assert_eq!(encode_database(&db1), encode_database(&db2));
    }

    #[test]
    fn columnar_roundtrip_across_interners() {
        let db = sample_db();
        let bytes = encode_database_columnar(&db);
        assert_eq!(bytes[..8], COLUMNAR_MAGIC);
        let mut other = Database::new();
        other.intern("zebra");
        other.intern("b");
        let generation = decode_database_columnar_into(&bytes, &mut other).unwrap();
        assert_eq!(generation, db.generation());
        assert_eq!(fingerprint(&other), fingerprint(&db));
    }

    #[test]
    fn snapshot_sniff_dispatches_on_the_body_magic() {
        let db = sample_db();
        for bytes in [encode_database(&db), encode_database_columnar(&db)] {
            let mut fresh = Database::new();
            let generation = decode_snapshot_into(&bytes, &mut fresh).unwrap();
            assert_eq!(generation, db.generation());
            assert_eq!(fingerprint(&fresh), fingerprint(&db));
        }
    }

    #[test]
    fn columnar_encoding_is_deterministic_and_aligned() {
        let db1 = sample_db();
        let mut db2 = Database::new();
        db2.intern("noise1");
        db2.load_fact_text("e(a, b). e(b, c). age(a, 42). age(b, -7). flag.").unwrap();
        let bytes = encode_database_columnar(&db1);
        assert_eq!(bytes, encode_database_columnar(&db2));
        // Every column section and the string table sit on 8-byte
        // boundaries — the property a memory-mapping reader relies on.
        let sto = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        assert_eq!(sto % 8, 0);
        let nrels = u32::from_le_bytes(bytes[24..28].try_into().unwrap()) as usize;
        for i in 0..nrels {
            let at = 32 + i * 24 + 16;
            let col_offset = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            assert_eq!(col_offset % 8, 0, "relation {i} column section misaligned");
        }
    }

    #[test]
    fn columnar_truncation_never_panics() {
        let db = sample_db();
        let bytes = encode_database_columnar(&db);
        for len in 0..bytes.len() {
            let mut fresh = Database::new();
            assert!(
                decode_database_columnar_into(&bytes[..len], &mut fresh).is_err(),
                "prefix {len}"
            );
            assert_eq!(fresh.total_tuples(), 0, "prefix {len} left tuples behind");
        }
    }

    #[test]
    fn columnar_hostile_frames_are_rejected() {
        let db = sample_db();
        let good = encode_database_columnar(&db);
        let fresh = || Database::new();

        // A row count of u64::MAX must fail fast on the section-span
        // check, not allocate.
        let mut bytes = good.clone();
        bytes[32 + 8..32 + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_database_columnar_into(&bytes, &mut fresh()),
            Err(CodecError::Truncated { .. })
        ));

        // A column offset pointing into the directory (or out of bounds).
        let mut bytes = good.clone();
        bytes[32 + 16..32 + 24].copy_from_slice(&8u64.to_le_bytes());
        assert!(decode_database_columnar_into(&bytes, &mut fresh()).is_err());
        let mut bytes = good.clone();
        bytes[32 + 16..32 + 24].copy_from_slice(&(good.len() as u64).to_le_bytes());
        assert!(decode_database_columnar_into(&bytes, &mut fresh()).is_err());

        // A string-table offset past the end of the frame.
        let mut bytes = good.clone();
        bytes[16..24].copy_from_slice(&(good.len() as u64 + 8).to_le_bytes());
        assert!(decode_database_columnar_into(&bytes, &mut fresh()).is_err());

        // A symbol word with garbage in its upper 32 bits.
        let db2 = {
            let mut d = Database::new();
            d.load_fact_text("p(a).").unwrap();
            d
        };
        let mut bytes = encode_database_columnar(&db2);
        let col = u64::from_le_bytes(bytes[32 + 16..32 + 24].try_into().unwrap()) as usize;
        bytes[col + 4..col + 8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_database_columnar_into(&bytes, &mut fresh()),
            Err(CodecError::Truncated { what: "columnar symbol word" })
        ));
    }

    #[test]
    fn columnar_hostile_zero_arity_counts_are_rejected() {
        // Mirror of `hostile_zero_arity_counts_are_rejected`: nullary
        // sections occupy no bytes, so a huge claimed row count must be
        // bounded directly.
        let mut db = Database::new();
        db.load_fact_text("flag.").unwrap();
        let mut bytes = encode_database_columnar(&db);
        bytes[32 + 8..32 + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut fresh = Database::new();
        assert!(matches!(
            decode_database_columnar_into(&bytes, &mut fresh),
            Err(CodecError::Truncated { what: "relation rows" })
        ));
        // A count of exactly one still roundtrips.
        let bytes = encode_database_columnar(&db);
        let mut fresh = Database::new();
        decode_database_columnar_into(&bytes, &mut fresh).unwrap();
        assert_eq!(fingerprint(&fresh), fingerprint(&db));
    }

    #[test]
    fn columnar_rejects_inconsistent_arities_all_or_none() {
        // Two directory entries for one predicate with different arities:
        // nothing may be installed.
        let mut db = Database::new();
        db.load_fact_text("p(a). q(a, b).").unwrap();
        let mut bytes = encode_database_columnar(&db);
        // Point q's name index at p's name (entry 1's name index).
        let p_name = bytes[32..36].to_vec();
        bytes[32 + 24..32 + 28].copy_from_slice(&p_name);
        let mut fresh = Database::new();
        assert!(matches!(
            decode_database_columnar_into(&bytes, &mut fresh),
            Err(CodecError::Truncated { what: "consistent relation arities" })
        ));
        assert_eq!(fresh.total_tuples(), 0);
    }
}
