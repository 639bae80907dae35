package sim

// Calibrated cost model for the simulated machine.
//
// The paper's testbed: 200-MHz Pentium Pro, 256-KB L2, 64-MB RAM, NCR 815
// SCSI with Quantum Atlas XP32150 disks, and 3 x 100-Mbit/s Ethernets.
// Every constant below is either taken directly from a number the paper
// states (cited inline) or calibrated so that the microbenchmarks the
// paper reports (getpid, fork, pipe latency) come out near the published
// values. The macro results (Figures 2-5) are then *emergent* from this
// model; they are not hard-coded.

// Microsecond is one microsecond of simulated time in cycles.
const Microsecond Time = CPUHz / 1_000_000

// Millisecond is one millisecond of simulated time in cycles.
const Millisecond Time = CPUHz / 1_000

// CPU entry/exit and call costs.
const (
	// CostLibCall is a protected-procedure call into a libOS (no kernel
	// crossing). Section 7.1: emulated getpid = 100 cycles total on
	// Xok/ExOS, which is a procedure call into ExOS plus the trivial
	// work itself.
	CostLibCall Time = 60

	// CostTrapXok is one Xok kernel crossing (trap + return). Xok is
	// "completely untuned" (Section 9.3) but its crossings are short.
	CostTrapXok Time = 160

	// CostTrapBSD is one 4.4BSD kernel crossing including the argument
	// validation UNIX performs. Section 7.1: getpid = 270 cycles on
	// OpenBSD; 270 minus the ~40-cycle body leaves ~230 for the
	// crossing; we round to 220 plus a 10-cycle dispatch.
	CostTrapBSD Time = 220

	// CostGetpidWork is the trivial body of getpid-like calls.
	CostGetpidWork Time = 40

	// CostContextSwitch is an address-space switch (CR3 reload + TLB
	// refill shadow). "Particularly expensive on the Intel Pentium Pro
	// processors" (Section 3.2): ~5 microseconds.
	CostContextSwitch Time = 5 * Microsecond

	// CostYieldDirected is a directed yield between cooperating
	// environments (Section 5.2.1, pipes): cheaper than a full
	// involuntary context switch because no scheduler search runs.
	CostYieldDirected Time = 4 * Microsecond

	// CostUpcall is delivering a software interrupt / upcall to an
	// environment (time-slice start/end notification, packet arrival).
	CostUpcall Time = 300

	// CostPredicateEval is evaluating one compiled wakeup predicate at
	// dispatch time (Section 5.1: compiled on the fly, cheap).
	CostPredicateEval Time = 40

	// CostPredicateDownload is installing a predicate: "like dynamic
	// packet filters, Xok compiles predicates on-the-fly to executable
	// code" and pre-translates the virtual addresses it references —
	// code generation plus page-table walks, charged on each install.
	CostPredicateDownload Time = 10 * Microsecond

	// CostRegionCheck is the kernel-side validation of one software
	// region access beyond the raw copy (bounds, capability check,
	// fault containment).
	CostRegionCheck Time = 500

	// CostUDFStep is one interpreted UDF instruction inside XN.
	CostUDFStep Time = 4

	// CostPageFault is the hardware fault + kernel dispatch cost of a
	// page fault (before any handler work).
	CostPageFault Time = 500

	// CostPTEUpdate is one page-table-entry update performed inside a
	// system call on Xok (applications cannot write x86 page tables
	// directly, Section 5.1). ExOS batches these to amortize the trap.
	CostPTEUpdate Time = 25
)

// Memory costs.
const (
	// PageSize is the x86 page size.
	PageSize = 4096

	// copy throughput: ~120 MB/s bulk copy on the 200-MHz Pentium Pro
	// (5/3 cycles per byte). Calibrated from Table 2: the 8-KB
	// shared-memory pipe costs 150us, which is two 8-KB copies plus
	// the 1-byte path (13us).
	copyNum = 5
	copyDen = 3

	// checksum: IP checksum at ~200 MB/s (1 cycle/byte).
	checksumPerByte = 1
)

// CopyCost is the CPU cost of copying n bytes (memcpy at ~120 MB/s).
func CopyCost(n int) Time { return Time(n*copyNum/copyDen) + 20 }

// ChecksumCost is the CPU cost of checksumming n bytes.
func ChecksumCost(n int) Time { return Time(n*checksumPerByte) + 10 }

// TouchCost is the CPU cost of streaming over n bytes read-only
// (compare, scan, word count): slightly cheaper than a copy.
func TouchCost(n int) Time { return Time(n) + 10 }

// Fork/exec costs (Section 6.2).
const (
	// CostForkExOS: "Fork takes six milliseconds on ExOS" because Xok
	// does not yet let environments share page tables, so ExOS scans
	// its page table marking pages copy-on-write through batched
	// system calls.
	CostForkExOS Time = 6 * Millisecond

	// CostForkBSD: "less than one millisecond on OpenBSD".
	CostForkBSD Time = 8 * Millisecond / 10

	// CostExec is overlaying a process image (demand-load setup).
	CostExec Time = 2 * Millisecond

	// CostCOWFault is one copy-on-write fault: fault + page copy + PTE
	// fixups (the 4-KB copy dominates).
	CostCOWFault Time = 500 + 4096*copyNum/copyDen + 200
)

// Disk model (Quantum Atlas XP32150: 7200 rpm, ~8 ms average seek,
// ~10 MB/s media rate).
const (
	// DiskBlockSize is the file-system block size used throughout.
	DiskBlockSize = 4096

	// DiskSeekMin is a single-track seek.
	DiskSeekMin Time = 800 * Microsecond

	// DiskSeekAvg is the average (third-of-max-stroke) seek.
	DiskSeekAvg Time = 8000 * Microsecond

	// DiskRotationPeriod is one revolution at 7200 rpm.
	DiskRotationPeriod Time = 8333 * Microsecond

	// DiskTransferPerBlock is the media transfer time of one 4-KB
	// block at ~10 MB/s.
	DiskTransferPerBlock Time = 400 * Microsecond

	// DiskControllerOverhead is per-request SCSI command processing.
	DiskControllerOverhead Time = 150 * Microsecond

	// DiskInterruptCost is the host CPU cost of one disk completion
	// interrupt.
	DiskInterruptCost Time = 20 * Microsecond
)

// Network model: 3 x 100-Mbit/s Ethernets (Section 7.3), standard 1500-B
// MTU.
const (
	// LinkBandwidthBps is one Ethernet's bandwidth in bits/second.
	LinkBandwidthBps = 100_000_000

	// NumLinks is the number of Ethernets on the server machine.
	NumLinks = 3

	// EthernetMTU is the maximum payload per frame.
	EthernetMTU = 1500

	// EthernetHeader is the per-frame header+CRC+framing overhead in
	// bytes (14 header + 4 CRC + 8 preamble + 12 inter-frame gap).
	EthernetHeader = 38

	// LinkLatency is the one-way wire+switch latency.
	LinkLatency Time = 50 * Microsecond

	// CostNICInterrupt is the host CPU cost of a packet interrupt.
	CostNICInterrupt Time = 10 * Microsecond

	// CostPacketFilter is running the dynamic packet filter on one
	// received packet (compiled, cheap).
	CostPacketFilter Time = 100
)

// WireTimeAt is the transmission time of n payload bytes on a link of
// the given bandwidth (bits/second); Topology links serialize frames
// with it.
func WireTimeAt(n int, bps uint64) Time {
	bits := (n + EthernetHeader) * 8
	return Time(uint64(bits) * CPUHz / bps)
}
