package scc

import (
	"sccsim/internal/snap"
	"sccsim/internal/uopcache"
)

// EncodeSnapshot serializes the unit's dynamic state: stats, the
// request queue, and any in-flight compaction job — including its
// already computed Result, whose line (if committed) exists nowhere
// else yet. Remarks are not serialized: they only exist when a journal
// tap is attached, and journals are re-attached by the caller after a
// restore, so a restored job completes with the same architectural
// effect and no remark list — exactly like a job run without a journal.
func (u *Unit) EncodeSnapshot(w *snap.Writer) {
	w.Block(&u.Stats)
	w.U64s(u.queue)
	w.U64(u.busyUntil)
	w.U64(u.jobSeq)
	w.U64(u.pendingID)
	w.U64(u.pendingPC)
	w.Bool(u.pendingOK)
	if u.pendingOK {
		encodeResult(w, &u.pending)
	}
}

// RestoreSnapshot fills a freshly built unit (same Cfg/Env) from the
// snapshot, rebuilding the duplicate-suppression set from the queue.
func (u *Unit) RestoreSnapshot(r *snap.Reader) {
	r.Block(&u.Stats)
	n := r.Count(8)
	u.queue = make([]uint64, n)
	u.inQueue = make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		u.queue[i] = r.U64()
		u.inQueue[u.queue[i]] = true
	}
	u.busyUntil = r.U64()
	u.jobSeq = r.U64()
	u.pendingID = r.U64()
	u.pendingPC = r.U64()
	u.pendingOK = r.Bool()
	u.pending = Result{}
	if u.pendingOK {
		decodeResult(r, &u.pending)
	}
}

func encodeResult(w *snap.Writer, res *Result) {
	w.Bool(res.Line != nil)
	if res.Line != nil {
		uopcache.EncodeLine(w, res.Line)
	}
	w.Int(int(res.Abort))
	w.Int(res.Cycles)
	w.Int(res.ElimMove)
	w.Int(res.ElimFold)
	w.Int(res.ElimBranch)
	w.Int(res.ElimDead)
	w.Int(res.Propagated)
	w.Int(res.DataInvUsed)
	w.Int(res.CtrlInvUsed)
	w.Int(res.OrigSlots)
	w.Int(res.OutSlots)
	w.Int(res.OrigUops)
	w.U64(res.RCTReads)
	w.U64(res.RCTWrites)
}

func decodeResult(r *snap.Reader, res *Result) {
	if r.Bool() {
		res.Line = uopcache.DecodeLine(r)
	}
	res.Abort = AbortReason(r.Int())
	res.Cycles = r.Int()
	res.ElimMove = r.Int()
	res.ElimFold = r.Int()
	res.ElimBranch = r.Int()
	res.ElimDead = r.Int()
	res.Propagated = r.Int()
	res.DataInvUsed = r.Int()
	res.CtrlInvUsed = r.Int()
	res.OrigSlots = r.Int()
	res.OutSlots = r.Int()
	res.OrigUops = r.Int()
	res.RCTReads = r.U64()
	res.RCTWrites = r.U64()
}
