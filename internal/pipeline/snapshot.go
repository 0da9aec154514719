package pipeline

import (
	"errors"
	"fmt"
	"sort"

	"sccsim/internal/asm"
	"sccsim/internal/snap"
	"sccsim/internal/vpred"
)

// ErrNotQuiescent is returned by Snapshot when the pipeline still holds
// in-flight work. Snapshots are only taken at the quiescent points where
// Run breaks — stream drained, IDQ empty, ROB retired — which is what
// makes restore-and-continue byte-identical to running straight through.
var ErrNotQuiescent = errors.New("pipeline: snapshot requires a quiescent machine (drained stream, IDQ and ROB)")

// Snapshot serializes the machine's complete simulation state —
// architectural (emulator registers and memory) and microarchitectural
// (caches, branch and value predictors, micro-op cache partitions with
// planted invariants and confidence counters, SCC unit queue and
// in-flight job, backend readiness, stats) — as a deterministic
// versioned binary with an integrity digest. Two machines in identical
// state produce identical bytes.
//
// Hooks (sample, trace, journal) are deliberately not captured: they
// are caller-owned taps, re-attached after restore.
func (m *Machine) Snapshot() ([]byte, error) {
	if !m.streamEmpty() || !m.idqEmpty() || !m.be.drained() {
		return nil, ErrNotQuiescent
	}
	w := snap.NewWriter()

	// Pipeline control state.
	w.U64(m.cycle)
	w.Bool(false) // retired "done" flag, kept so the format is unchanged
	w.U64(m.nextPC)
	w.Bool(m.redirectPending)
	w.Bool(m.redirectIsSquash)
	w.U64(m.resumeFetchAt)
	w.Block(&m.Stats)
	w.U64s(m.forceUnopt)

	// Locked lines are re-resolved against the restored unoptimized
	// partition by entry PC, so only the PCs are stored.
	lockedPCs := make([]uint64, len(m.locked))
	for i := range m.locked {
		lockedPCs[i] = m.locked[i].pc
	}
	w.U64s(lockedPCs)

	// Per-region compaction-control table, sorted by region PC.
	regionKeys, regionVals := tableEntries(m.regions)
	w.U32(uint32(len(regionKeys)))
	for i, k := range regionKeys {
		w.U64(k)
		w.U64(regionVals[i].reqAt)
		w.U64(regionVals[i].squashes)
	}

	// Backend carry-over: operand readiness, store-to-load forwarding.
	for _, t := range m.be.regReady {
		w.U64(t)
	}
	w.U64(m.be.lastIssue)
	storeKeys, storeVals := tableEntries(m.be.storeReady)
	w.U32(uint32(len(storeKeys)))
	for i, k := range storeKeys {
		w.U64(k)
		w.U64(storeVals[i])
	}

	// Components.
	if err := m.Oracle.EncodeSnapshot(w); err != nil {
		return nil, err
	}
	m.BP.EncodeSnapshot(w)
	vpred.EncodeSnapshot(w, m.VP)
	m.Hier.EncodeSnapshot(w)
	m.UC.EncodeSnapshot(w)
	w.Bool(m.Unit != nil)
	if m.Unit != nil {
		m.Unit.EncodeSnapshot(w)
	}
	return w.Finish(), nil
}

// NewMachineFromSnapshot builds a machine for cfg/prog and restores the
// state captured by Snapshot. cfg and prog must match the snapshotting
// machine's: component decoders verify structural geometry (cache
// sets×ways, predictor tables, partition shapes) and fail loudly on a
// mismatch, but behavioural knobs are the caller's contract — the
// harness enforces it by keying snapshots with the warmup config hash.
func NewMachineFromSnapshot(cfg Config, prog *asm.Program, data []byte) (*Machine, error) {
	m, err := New(cfg, prog)
	if err != nil {
		return nil, err
	}
	r, err := snap.NewReader(data)
	if err != nil {
		return nil, err
	}

	m.cycle = r.U64()
	m.startCycle = m.cycle
	if r.Bool() {
		r.Errorf("%w: retired done flag is set", snap.ErrMalformed)
	}
	m.nextPC = r.U64()
	m.redirectPending = r.Bool()
	m.redirectIsSquash = r.Bool()
	m.resumeFetchAt = r.U64()
	r.Block(&m.Stats)
	if n := r.Count(8); n > 0 {
		m.forceUnopt = make([]uint64, n)
		for i := range m.forceUnopt {
			m.forceUnopt[i] = r.U64()
		}
	}
	lockedPCs := make([]uint64, r.Count(8))
	for i := range lockedPCs {
		lockedPCs[i] = r.U64()
	}

	for n, i := r.Count(3*8), 0; i < n; i++ { // pc, reqAt, squashes
		pc := r.U64()
		m.regions.put(pc, regionState{reqAt: r.U64(), squashes: r.U64()})
	}

	for i := range m.be.regReady {
		m.be.regReady[i] = r.U64()
	}
	m.be.lastIssue = r.U64()
	for n, i := r.Count(2*8), 0; i < n; i++ { // addr, ready cycle
		addr := r.U64()
		m.be.storeReady.put(addr, r.U64())
	}

	if err := m.Oracle.RestoreSnapshot(r); err != nil {
		return nil, err
	}
	m.BP.RestoreSnapshot(r)
	vpred.RestoreSnapshot(r, m.VP)
	m.Hier.RestoreSnapshot(r)
	m.UC.RestoreSnapshot(r)
	hasUnit := r.Bool()
	if hasUnit != (m.Unit != nil) {
		return nil, fmt.Errorf("pipeline: snapshot SCC unit presence %v, config %v", hasUnit, m.Unit != nil)
	}
	if m.Unit != nil {
		m.Unit.RestoreSnapshot(r)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}

	// Re-resolve locked lines against the restored unoptimized partition.
	// A locked line is pinned against eviction, so it must be resident.
	for _, pc := range lockedPCs {
		line := m.UC.Unopt.Peek(pc)
		if line == nil {
			return nil, fmt.Errorf("pipeline: snapshot locked line %#x not resident after restore", pc)
		}
		m.locked = append(m.locked, lockedLine{pc: pc, line: line})
	}

	// The fresh IQ/LSQ counters are empty (the snapshot point is drained);
	// advance their credit clocks to the restored cycle so the first drain
	// after restore does not walk the whole gap cycle by cycle.
	m.be.iq.last = m.cycle
	m.be.lsq.last = m.cycle
	return m, nil
}

// tableEntries collects a u64table's live entries in ascending key
// order — the deterministic iteration the table itself intentionally
// does not offer.
func tableEntries[V any](t *u64table[V]) ([]uint64, []V) {
	keys := make([]uint64, 0, t.n)
	for i := range t.keys {
		if t.gens[i] == t.gen {
			keys = append(keys, t.keys[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]V, len(keys))
	for i, k := range keys {
		v, _ := t.get(k)
		vals[i] = v
	}
	return keys, vals
}
