//! The compiled-circuit cache and its what-if edit overlays.
//!
//! A `load` request parses netlist text, canonicalises it through the
//! repository's writer, and fingerprints the canonical form — so two
//! textual variations of the same circuit share one cache slot and one
//! compilation.  Each entry keeps its canonical text.  The writer's output
//! is a fixed point of parse → `to_text`, so a `.net` load whose bytes
//! equal a cached entry's canonical text is answered from the fingerprint
//! and one comparison, without parsing; every other load (Verilog, or a
//! non-canonical `.net` spelling) takes the parse path to the same key.
//!
//! Entries hold a **pristine** [`CompiledCircuit`] plus an optional
//! **overlay**: the outstanding `edit` scripts and a clone of the pristine
//! circuit with them applied.  The overlay is a function of the pristine
//! circuit and those scripts, so `revert` drops the newest script and
//! rebuilds the overlay by replaying the rest on a fresh clone of the
//! pristine circuit; its cost grows with the number of edits outstanding.
//!
//! Eviction is LRU over a monotone touch tick, bounded by a fixed capacity.
//! Evicting an entry that is mid-simulation is safe: requests hold an
//! [`Arc`], so the circuit lives until the last in-flight request drops it
//! (its key simply stops resolving).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use halotis_core::{GateId, NetId};
use halotis_netlist::{
    parser, technology, verilog, writer, EditSession, Library, Netlist, NetlistError,
};
use halotis_sim::{CompiledCircuit, SimulationError};

use crate::protocol::{EditCommand, ErrorCode, NetlistFormat, ProtocolError};

/// The daemon's one library, with `'static` lifetime so compiled circuits
/// are cacheable across connections.
pub fn library() -> &'static Library {
    static LIBRARY: OnceLock<Library> = OnceLock::new();
    LIBRARY.get_or_init(technology::cmos06)
}

/// 64-bit FNV-1a over the library name and the canonical netlist text.
fn fingerprint(library_name: &str, canonical: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in library_name
        .as_bytes()
        .iter()
        .chain(&[0u8])
        .chain(canonical.as_bytes())
    {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The cache key of a canonical `.net` text under the daemon's library.
fn cache_key(canonical: &str) -> String {
    format!("c-{:016x}", fingerprint(library().name(), canonical))
}

/// Outstanding what-if edits on top of a pristine circuit.
#[derive(Debug)]
pub struct Overlay {
    /// The edited circuit: a clone of the pristine one with every script
    /// applied, in order.
    pub circuit: CompiledCircuit<'static>,
    /// The commands of each outstanding `edit`, oldest first.
    pub scripts: Vec<Vec<EditCommand>>,
}

/// The mutable half of a cache entry, behind the entry's [`RwLock`].
#[derive(Debug)]
pub struct CircuitState {
    /// The as-loaded compilation; never mutated after insert.
    pub pristine: CompiledCircuit<'static>,
    /// Outstanding edits, if any.
    pub overlay: Option<Overlay>,
}

impl CircuitState {
    /// The circuit requests should run against: the overlay when edits are
    /// outstanding, the pristine compilation otherwise.
    pub fn active(&self) -> &CompiledCircuit<'static> {
        self.overlay
            .as_ref()
            .map_or(&self.pristine, |overlay| &overlay.circuit)
    }

    /// Applies one edit request atomically: the commands run against a
    /// *clone* of the active circuit, which replaces the overlay only when
    /// every command succeeded.  On any failure the clone is discarded and
    /// the state is untouched (the engine treats a half-edited circuit as
    /// stale, so partial application is never acceptable here).
    pub fn apply_commands(
        &mut self,
        commands: &[EditCommand],
    ) -> Result<EditReport, ProtocolError> {
        let mut circuit = self.active().clone();
        let edits = apply_script(&mut circuit, commands)?;
        let mut scripts = self
            .overlay
            .take()
            .map_or_else(Vec::new, |overlay| overlay.scripts);
        scripts.push(commands.to_vec());
        let report = EditReport {
            edits,
            revert_depth: scripts.len(),
        };
        self.overlay = Some(Overlay { circuit, scripts });
        Ok(report)
    }

    /// Undoes the most recent outstanding edit by rebuilding the overlay
    /// from the pristine circuit: the remaining scripts are replayed, one
    /// session each as [`apply_commands`](Self::apply_commands) ran them,
    /// on a clone of `pristine`.  With none remaining the overlay is
    /// dropped, so the pristine tables serve future requests.  If a replay
    /// fails the state is left unchanged.
    pub fn revert(&mut self) -> Result<RevertReport, ProtocolError> {
        let Some(overlay) = &self.overlay else {
            return Err(ProtocolError::new(
                ErrorCode::NothingToRevert,
                "no edits are outstanding on this circuit",
            ));
        };
        let kept = &overlay.scripts[..overlay.scripts.len() - 1];
        if kept.is_empty() {
            self.overlay = None;
            return Ok(RevertReport { revert_depth: 0 });
        }
        let mut circuit = self.pristine.clone();
        for script in kept {
            apply_script(&mut circuit, script)?;
        }
        let scripts = kept.to_vec();
        let revert_depth = scripts.len();
        self.overlay = Some(Overlay { circuit, scripts });
        Ok(RevertReport { revert_depth })
    }
}

/// What an `edit` request reports back.
#[derive(Clone, Copy, Debug)]
pub struct EditReport {
    /// Mutating calls the session performed.
    pub edits: usize,
    /// Outstanding edits, this one included.
    pub revert_depth: usize,
}

/// What a `revert` request reports back.
#[derive(Clone, Copy, Debug)]
pub struct RevertReport {
    /// Outstanding edits remaining after this revert.
    pub revert_depth: usize,
}

/// Runs one edit request's commands on `circuit` inside one session and
/// returns the number of mutating calls.  On failure `circuit` may be half
/// edited; callers apply scripts to a clone and discard it on error.
fn apply_script(
    circuit: &mut CompiledCircuit<'static>,
    commands: &[EditCommand],
) -> Result<usize, ProtocolError> {
    circuit
        .edit(|session| {
            commands
                .iter()
                .try_for_each(|command| apply_command(session, command))
        })
        .map(|log| log.edits())
        .map_err(|err| match err {
            SimulationError::Netlist(err @ NetlistError::UnknownGate { .. }) => {
                ProtocolError::new(ErrorCode::UnknownGate, err.to_string())
            }
            SimulationError::Netlist(err @ NetlistError::UnknownNet { .. }) => {
                ProtocolError::new(ErrorCode::UnknownNet, err.to_string())
            }
            err => ProtocolError::new(ErrorCode::NetlistError, err.to_string()),
        })
}

fn gate_id(netlist: &Netlist, name: &str) -> Result<GateId, NetlistError> {
    netlist
        .gate_id(name)
        .ok_or_else(|| NetlistError::UnknownGate {
            name: name.to_string(),
        })
}

fn net_id(netlist: &Netlist, name: &str) -> Result<NetId, NetlistError> {
    netlist
        .net_id(name)
        .ok_or_else(|| NetlistError::UnknownNet {
            name: name.to_string(),
        })
}

/// Applies one command inside an open session.
fn apply_command(session: &mut EditSession<'_>, command: &EditCommand) -> Result<(), NetlistError> {
    match command {
        EditCommand::SwapKind { gate, kind } => {
            let gate = gate_id(session.netlist(), gate)?;
            session.swap_cell_kind(gate, *kind)
        }
        EditCommand::Rewire { gate, input, net } => {
            let gate = gate_id(session.netlist(), gate)?;
            let net = net_id(session.netlist(), net)?;
            session.rewire_input(gate, *input, net)
        }
        EditCommand::Insert {
            kind,
            name,
            inputs,
            output,
        } => {
            let inputs = inputs
                .iter()
                .map(|input| net_id(session.netlist(), input))
                .collect::<Result<Vec<_>, _>>()?;
            session
                .insert_gate(*kind, name.clone(), &inputs, output.clone())
                .map(|_| ())
        }
        EditCommand::Remove { gate } => {
            let gate = gate_id(session.netlist(), gate)?;
            session.remove_gate(gate).map(|_| ())
        }
        EditCommand::Expose { net } => {
            let net = net_id(session.netlist(), net)?;
            session.expose_net(net)
        }
        EditCommand::Unexpose { net } => {
            let net = net_id(session.netlist(), net)?;
            session.unexpose_net(net)
        }
    }
}

/// One cached circuit.
#[derive(Debug)]
pub struct CacheEntry {
    key: String,
    circuit_name: String,
    /// The pristine circuit's canonical `.net` text, the fingerprinted bytes.
    canonical: String,
    gates: usize,
    nets: usize,
    last_used: AtomicU64,
    /// Pristine compilation + overlay; simulate takes the read side, edit
    /// and revert the write side.
    pub state: RwLock<CircuitState>,
}

impl CacheEntry {
    /// What a `load` that finds this entry reports: the pristine circuit's
    /// shape, whatever edits are outstanding.
    fn report(&self) -> LoadReport {
        LoadReport {
            key: self.key.clone(),
            circuit: self.circuit_name.clone(),
            gates: self.gates,
            nets: self.nets,
            cached: true,
        }
    }

    /// The fingerprint key clients address this entry by.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The netlist's own name (informational).
    pub fn circuit_name(&self) -> &str {
        &self.circuit_name
    }

    /// Read access to the state, surviving poisoning (a panicking worker
    /// must not wedge the daemon).
    pub fn read_state(&self) -> std::sync::RwLockReadGuard<'_, CircuitState> {
        self.state.read().unwrap_or_else(|err| err.into_inner())
    }

    /// Write access to the state (see [`read_state`](Self::read_state)).
    pub fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, CircuitState> {
        self.state.write().unwrap_or_else(|err| err.into_inner())
    }
}

/// What a `load` request reports back.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The fingerprint key to address the circuit by.
    pub key: String,
    /// The netlist's own name.
    pub circuit: String,
    /// Gate count.
    pub gates: usize,
    /// Net count.
    pub nets: usize,
    /// `true` when the key was already compiled (this request did no work).
    pub cached: bool,
}

/// Counters the `stats` op reports for the cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    /// Circuits currently resident.
    pub entries: usize,
    /// `load` requests that found their key already compiled.
    pub hits: u64,
    /// Fresh compilations performed.
    pub compiles: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

/// The LRU-bounded circuit cache.
#[derive(Debug)]
pub struct CircuitCache {
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
    entries: Mutex<HashMap<String, Arc<CacheEntry>>>,
}

impl CircuitCache {
    /// Creates a cache holding at most `capacity` circuits (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CircuitCache {
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn touch(&self, entry: &CacheEntry) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(now, Ordering::Relaxed);
    }

    /// Parses, canonicalises, fingerprints and (if new) compiles `text` in
    /// the native `.net` format; canonical text of a cached circuit skips
    /// the parse.
    pub fn load(&self, text: &str) -> Result<LoadReport, ProtocolError> {
        self.load_as(text, NetlistFormat::Net)
    }

    /// [`load`](Self::load) with an explicit interchange format.
    ///
    /// The fingerprint key is computed over the canonical `.net` re-emission,
    /// never the submitted text, so the same circuit keys identically whether
    /// it arrived as `.net` or as structural Verilog.  A `.net` text that is
    /// byte for byte a cached entry's canonical text hits without parsing.
    pub fn load_as(&self, text: &str, format: NetlistFormat) -> Result<LoadReport, ProtocolError> {
        // A `.net` text's own key, which is its circuit's key if the text is
        // canonical.
        let text_key = match format {
            NetlistFormat::Net => {
                let key = cache_key(text);
                if let Some(report) = self.canonical_hit(&key, text) {
                    return Ok(report);
                }
                Some(key)
            }
            NetlistFormat::Verilog => None,
        };
        let parsed = match format {
            NetlistFormat::Net => parser::parse(text)
                .map_err(|err| ProtocolError::new(ErrorCode::NetlistError, err.to_string()))?,
            NetlistFormat::Verilog => verilog::parse_verilog(text)
                .map_err(|err| ProtocolError::new(ErrorCode::NetlistError, err.to_string()))?,
        };
        let canonical = writer::to_text(&parsed);
        let key = match text_key {
            Some(key) if canonical == text => key,
            _ => cache_key(&canonical),
        };

        let mut entries = self.entries.lock().unwrap_or_else(|err| err.into_inner());
        if let Some(entry) = entries.get(&key) {
            return Ok(self.hit(entry));
        }

        let pristine = CompiledCircuit::compile_owned(parsed, library())
            .map_err(|err| ProtocolError::new(ErrorCode::NetlistError, err.to_string()))?;
        let entry = Arc::new(CacheEntry {
            key: key.clone(),
            circuit_name: pristine.netlist().name().to_string(),
            canonical,
            gates: pristine.netlist().gates().len(),
            nets: pristine.netlist().nets().len(),
            last_used: AtomicU64::new(0),
            state: RwLock::new(CircuitState {
                pristine,
                overlay: None,
            }),
        });
        let report = LoadReport {
            cached: false,
            ..entry.report()
        };
        self.touch(&entry);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        entries.insert(key, entry);

        while entries.len() > self.capacity {
            let Some(victim) = entries
                .values()
                .min_by_key(|entry| entry.last_used.load(Ordering::Relaxed))
                .map(|entry| entry.key.clone())
            else {
                break;
            };
            entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    /// Answers a `.net` load without parsing when `text`, whose key is
    /// `key`, is byte for byte the canonical text of a cached entry.  The
    /// writer's output is a fixed point of parse → `to_text`, so parsing it
    /// would re-emit the same bytes, fingerprint to the same key and hit the
    /// same entry.
    fn canonical_hit(&self, key: &str, text: &str) -> Option<LoadReport> {
        let entries = self.entries.lock().unwrap_or_else(|err| err.into_inner());
        let entry = entries.get(key).filter(|entry| entry.canonical == text)?;
        Some(self.hit(entry))
    }

    /// Counts a hit on `entry` and reports it.
    fn hit(&self, entry: &CacheEntry) -> LoadReport {
        self.touch(entry);
        self.hits.fetch_add(1, Ordering::Relaxed);
        entry.report()
    }

    /// Resolves a key, refreshing its LRU position.
    pub fn get(&self, key: &str) -> Option<Arc<CacheEntry>> {
        let entries = self.entries.lock().unwrap_or_else(|err| err.into_inner());
        let entry = entries.get(key)?;
        self.touch(entry);
        Some(Arc::clone(entry))
    }

    /// Snapshot of the cache counters.
    pub fn counters(&self) -> CacheCounters {
        let entries = self.entries.lock().unwrap_or_else(|err| err.into_inner());
        CacheCounters {
            entries: entries.len(),
            hits: self.hits.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_netlist::{generators, CellKind};

    fn c17_text() -> String {
        writer::to_text(&generators::c17())
    }

    /// The parse-free path alone, keyed as `load_as` keys it.
    fn fast_hit(cache: &CircuitCache, text: &str) -> Option<LoadReport> {
        cache.canonical_hit(&cache_key(text), text)
    }

    #[test]
    fn load_is_idempotent_and_canonicalising() {
        let cache = CircuitCache::new(4);
        let first = cache.load(&c17_text()).unwrap();
        assert!(!first.cached);
        let second = cache.load(&c17_text()).unwrap();
        assert!(second.cached);
        assert_eq!(first.key, second.key);
        assert_eq!(cache.counters().compiles, 1);
        assert_eq!(cache.counters().hits, 1);

        // Canonical text is answered by the parse-free path alone.
        let fast = fast_hit(&cache, &c17_text()).expect("canonical text hits");
        assert!(fast.cached);
        assert_eq!(fast.key, first.key);
        assert_eq!((fast.gates, fast.nets), (first.gates, first.nets));
        assert_eq!(cache.counters().hits, 2);
        assert_eq!(cache.counters().compiles, 1);
    }

    #[test]
    fn verilog_loads_key_identically_to_net_loads() {
        let cache = CircuitCache::new(4);
        let native = cache.load(&c17_text()).unwrap();
        let verilog = cache
            .load_as(
                &verilog::to_verilog(&generators::c17()),
                NetlistFormat::Verilog,
            )
            .unwrap();
        // Same circuit, different carrier format: one compile, one hit.
        assert_eq!(native.key, verilog.key);
        assert!(verilog.cached);
        assert_eq!(cache.counters().compiles, 1);
    }

    #[test]
    fn unparseable_verilog_reports_a_netlist_error() {
        let cache = CircuitCache::new(4);
        let err = cache
            .load_as("module broken(", NetlistFormat::Verilog)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NetlistError);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = CircuitCache::new(2);
        let a = cache.load(&writer::to_text(&generators::c17())).unwrap();
        let b = cache
            .load(&writer::to_text(&generators::parity_tree(4)))
            .unwrap();
        // Touch `a` so `b` is the LRU victim when a third circuit arrives.
        assert!(cache.get(&a.key).is_some());
        let c = cache
            .load(&writer::to_text(&generators::ripple_carry_adder(2)))
            .unwrap();
        assert!(cache.get(&a.key).is_some());
        assert!(cache.get(&b.key).is_none());
        assert!(cache.get(&c.key).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().entries, 2);
    }

    #[test]
    fn edits_overlay_and_revert_restores_pristine() {
        let cache = CircuitCache::new(4);
        let report = cache.load(&c17_text()).unwrap();
        let entry = cache.get(&report.key).unwrap();

        let mut state = entry.write_state();
        let gate = state.pristine.netlist().gates()[0].name().to_string();
        let edit = state
            .apply_commands(&[EditCommand::SwapKind {
                gate,
                kind: CellKind::Nor2,
            }])
            .unwrap();
        assert_eq!(edit.edits, 1);
        assert_eq!(edit.revert_depth, 1);
        assert_ne!(
            state.active().netlist().gates()[0].kind(),
            state.pristine.netlist().gates()[0].kind()
        );

        let revert = state.revert().unwrap();
        assert_eq!(revert.revert_depth, 0);
        assert!(state.overlay.is_none());
        assert!(matches!(
            state.revert(),
            Err(ProtocolError {
                code: ErrorCode::NothingToRevert,
                ..
            })
        ));
    }

    #[test]
    fn unknown_names_fail_atomically() {
        let cache = CircuitCache::new(4);
        let report = cache.load(&c17_text()).unwrap();
        let entry = cache.get(&report.key).unwrap();
        let mut state = entry.write_state();
        let gate = state.pristine.netlist().gates()[0].name().to_string();
        let err = state
            .apply_commands(&[
                EditCommand::SwapKind {
                    gate,
                    kind: CellKind::Nor2,
                },
                EditCommand::Remove {
                    gate: "missing".to_string(),
                },
            ])
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownGate);
        // The first (valid) command must not have leaked through.
        assert!(state.overlay.is_none());
    }

    #[test]
    fn non_canonical_spelling_hits_through_the_parse_path() {
        let cache = CircuitCache::new(4);
        let canonical = cache.load(&c17_text()).unwrap();
        let commented = format!("# the same circuit, spelled differently\n{}", c17_text());
        assert!(fast_hit(&cache, &commented).is_none());
        assert_eq!(cache.counters().hits, 0);

        let report = cache.load(&commented).unwrap();
        assert!(report.cached);
        assert_eq!(report.key, canonical.key);
        assert_eq!(cache.counters().hits, 1);
        assert_eq!(cache.counters().compiles, 1);
    }

    #[test]
    fn evicted_canonical_text_compiles_again() {
        let cache = CircuitCache::new(1);
        let first = cache.load(&c17_text()).unwrap();
        cache
            .load(&writer::to_text(&generators::parity_tree(4)))
            .unwrap();
        assert!(fast_hit(&cache, &c17_text()).is_none());

        let again = cache.load(&c17_text()).unwrap();
        assert!(!again.cached);
        assert_eq!(again.key, first.key);
        assert_eq!(cache.counters().compiles, 3);
        assert_eq!(cache.counters().evictions, 2);
    }

    #[test]
    fn reload_under_an_edit_overlay_reports_the_pristine_circuit() {
        let cache = CircuitCache::new(4);
        let loaded = cache.load(&c17_text()).unwrap();
        let entry = cache.get(&loaded.key).unwrap();
        let input = entry.read_state().pristine.netlist().nets()[0]
            .name()
            .to_string();
        entry
            .write_state()
            .apply_commands(&[EditCommand::Insert {
                kind: CellKind::Inv,
                name: "what_if".to_string(),
                inputs: vec![input],
                output: "what_if_out".to_string(),
            }])
            .unwrap();
        assert_eq!(
            entry.read_state().active().netlist().gates().len(),
            loaded.gates + 1
        );

        let reloaded = cache.load(&c17_text()).unwrap();
        assert!(reloaded.cached);
        assert_eq!(reloaded.key, loaded.key);
        assert_eq!((reloaded.gates, reloaded.nets), (loaded.gates, loaded.nets));
        assert!(entry.read_state().overlay.is_some());
    }

    #[test]
    fn fast_path_keys_equal_parse_path_keys_on_the_corpus() {
        for entry in halotis_corpus::standard_corpus() {
            let canonical = writer::to_text(&entry.netlist);
            let verilog_text = verilog::to_verilog(&entry.netlist);
            // Each cold load stores the canonical text its parse re-emits;
            // the fast path hits only if that is exactly the writer's text.
            for format in [NetlistFormat::Net, NetlistFormat::Verilog] {
                let cache = CircuitCache::new(1);
                let text = match format {
                    NetlistFormat::Net => &canonical,
                    NetlistFormat::Verilog => &verilog_text,
                };
                let parsed = cache.load_as(text, format).unwrap();
                assert!(!parsed.cached);
                let fast = fast_hit(&cache, &canonical)
                    .unwrap_or_else(|| panic!("{}: canonical text must hit", entry.name));
                assert_eq!(fast.key, parsed.key, "{} via {format:?}", entry.name);
                assert_eq!(fast.key, cache_key(&canonical));
            }
        }
    }
}
