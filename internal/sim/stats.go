package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Stats is a named-counter registry used for the paper's accounting
// results — e.g. Section 6.3 reports that removing XN and the
// shared-state protection calls cuts Xok system calls from 300,000 to
// 81,000 on the I/O-intensive workload. Counters are plain int64s keyed
// by string; the simulation increments them on traps, faults, disk ops,
// packets, and so on.
type Stats struct {
	counters map[string]int64
}

// NewStats returns an empty registry.
func NewStats() *Stats { return &Stats{counters: make(map[string]int64)} }

// Add increments counter name by n.
func (s *Stats) Add(name string, n int64) {
	if s == nil {
		return
	}
	s.counters[name] += n
}

// Inc increments counter name by one.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Get returns counter name (zero if never touched).
func (s *Stats) Get(name string) int64 {
	if s == nil {
		return 0
	}
	return s.counters[name]
}

// Names returns all counter names in sorted order.
func (s *Stats) Names() []string {
	names := make([]string, 0, len(s.counters))
	for k := range s.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	for k := range s.counters {
		delete(s.counters, k)
	}
}

// String renders the registry as "name=value" lines, sorted by name.
func (s *Stats) String() string {
	var b strings.Builder
	for _, name := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", name, s.counters[name])
	}
	return b.String()
}

// Well-known counter names used across the simulation.
const (
	CtrSyscalls      = "syscalls"       // kernel crossings
	CtrLibCalls      = "libcalls"       // libOS procedure calls
	CtrCtxSwitches   = "ctx_switches"   // address-space switches
	CtrDiskReads     = "disk_reads"     // block reads issued
	CtrDiskWrites    = "disk_writes"    // block writes issued
	CtrDiskSeeks     = "disk_seeks"     // non-sequential head moves
	CtrSyncWrites    = "sync_writes"    // synchronous metadata writes
	CtrPacketsTx     = "packets_tx"     // frames transmitted
	CtrPacketsRx     = "packets_rx"     // frames received
	CtrBytesCopied   = "bytes_copied"   // CPU copy traffic
	CtrUDFSteps      = "udf_steps"      // UDF instructions interpreted
	CtrPredEvals     = "pred_evals"     // wakeup-predicate evaluations
	CtrCacheHits     = "cache_hits"     // buffer cache hits
	CtrCacheMisses   = "cache_misses"   // buffer cache misses
	CtrProtCalls     = "prot_calls"     // shared-state protection calls
	CtrForks         = "forks"          // process creations
	CtrChecksums     = "checksum_bytes" // bytes checksummed by CPU
	CtrRetransmits   = "retransmits"    // TCP retransmissions
	CtrUpcalls       = "upcalls"        // kernel->env upcalls
	CtrEngineEvents  = "engine_events"  // event-queue dispatches (EventsDispatched delta)
	CtrRegistryOps   = "registry_ops"   // buffer-registry operations
	CtrTaintedBlocks = "tainted_blocks" // blocks ever marked tainted
)
