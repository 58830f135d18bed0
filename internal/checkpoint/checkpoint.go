// Package checkpoint is the algorithm-state snapshot layer behind
// incremental failure recovery: the master of a parallel run saves its
// round state (the targets extracted so far, the classifier phase just
// completed) at every round boundary, and a retry after a rank failure
// seeds the fresh master from the latest snapshot instead of recomputing
// from round zero.
//
// The paper's master/worker algorithms synchronize at every round — a
// gather of worker candidates followed by a broadcast of the grown state —
// which makes the master's state at those boundaries a complete, tiny
// description of the run's progress (kilobytes of signatures against
// megabytes of scene). Checkpointing at exactly those points buys
// incremental recovery for the cost of one small serialized write per
// round; "Revisiting Matrix Product on Master-Worker Platforms" exploits
// the same structure.
//
// Stores: MemStore keeps the latest snapshot in memory (one process);
// FileStore persists each save through the versioned, checksummed codec of
// this package (Encode/Decode) so state survives process restarts. Both
// are safe for concurrent use, though the simulated masters save from a
// single goroutine. A scheduler job's store (package sched) is a MemStore
// that also journals each snapshot through the same codec.
package checkpoint

// Snapshot is one master-side round state: everything the algorithm needs
// to resume at Round instead of round zero. The payload is an opaque,
// algorithm-owned encoding (package algo provides the per-algorithm
// codecs); this package only frames, checksums and stores it.
type Snapshot struct {
	// Algorithm names the producer ("ATDCA", "UFCLS", "PCT", "MORPH").
	// Restores ignore snapshots from a different algorithm.
	Algorithm string
	// Round counts completed round boundaries: for the detectors, targets
	// extracted so far; for the classifiers, master phases completed. A
	// resumed run restarts at exactly this round.
	Round int
	// Payload is the algorithm-specific encoded master state.
	Payload []byte
}

// Checkpointer saves and restores round snapshots. A nil Checkpointer in
// algo.Exec disables checkpointing entirely — no extra messages, no extra
// virtual-time charges, byte-identical outputs.
type Checkpointer interface {
	// Save records s as the latest round state, replacing any predecessor.
	Save(s Snapshot) error
	// Latest returns the most recent successfully saved snapshot. A store
	// that cannot produce a trustworthy snapshot (empty, or corrupt on
	// disk) reports ok=false: an unreadable checkpoint is indistinguishable
	// from no checkpoint, by design.
	Latest() (Snapshot, bool)
}

// Virtual-time cost model of checkpoint I/O, charged on the master's
// clock at each save and restore so checkpointed runs account for their
// overhead honestly (RunReport.CheckpointOverhead aggregates the charges).
// The figures model a local disk on the master node: a fixed sync latency
// plus a streaming term.
const (
	// saveLatency is the fixed per-snapshot cost in seconds (metadata
	// write plus fsync on a local disk).
	saveLatency = 0.0005
	// diskBandwidth is the streaming rate in bytes per second.
	diskBandwidth = 256 << 20
)

// SaveCost returns the virtual seconds charged for writing a snapshot of
// the given payload size.
func SaveCost(bytes int) float64 {
	return saveLatency + float64(bytes)/diskBandwidth
}

// RestoreCost returns the virtual seconds charged for reading a snapshot
// of the given payload size back at resume.
func RestoreCost(bytes int) float64 {
	return saveLatency/2 + float64(bytes)/diskBandwidth
}
