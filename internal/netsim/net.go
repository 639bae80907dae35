// Package netsim models the paper's network environment for the HTTP
// experiments (Section 7.3) and its cluster-scale extension: hosts
// joined by links with real bandwidth, latency and queue bounds
// (Topology), machines attached at NICs, and an optional
// load-balancer node spreading connections over several servers.
// Packets occupy link bandwidth for their wire time, arrivals
// interrupt the owning machine's CPU, and Xok's dynamic packet
// filters (internal/dpf) demultiplex arriving packets to the
// listening server or the specific connection — exactly the kernel
// path Xok uses.
//
// The transport is a compact HTTP/1.0-over-TCP exchange: SYN,
// SYN-ACK, request (piggybacked on the client's ACK), response
// segments with delayed client ACKs every second segment, FIN. The
// server-side cost knobs (per-connection CPU, per-packet CPU, copies
// into a retransmission pool, checksum computation, separate
// control packets, fork-per-request) are what differentiate the five
// servers of Figure 3.
//
// Load comes in two shapes: the closed-loop ClientPool of Figure 3
// (each client reissues as soon as its response lands) and the
// open-loop OpenPool (arrivals follow a Poisson or uniform process
// regardless of completions — the cluster experiment's offered load).
package netsim

import (
	"encoding/binary"

	"xok/internal/sim"
)

// TCP/IP header bytes per segment on the wire.
const ipTCPHeader = 40

// MSS is the maximum segment payload.
const MSS = sim.EthernetMTU - ipTCPHeader

// Packet flags.
const (
	FlagSYN uint8 = 1 << iota
	FlagACK
	FlagFIN
	FlagPSH
)

// Packet is one TCP segment (payload content is not materialized; the
// header bytes are real so the packet filters have something to match).
// Ports are 32 bits wide — wider than TCP's — so a connection-scale
// run (100k+ client ports from one host) never wraps into a colliding
// port and a stolen packet filter.
type Packet struct {
	SrcPort uint32
	DstPort uint32
	Flags   uint8
	Payload int
	Seq     int // first payload byte's offset in the response stream
	Ack     int // client ACK: bytes received in order
	Conn    *Conn

	// refs counts pending deliveries of this exact packet object (a
	// fault-plan duplication puts the same pointer on the wire twice).
	// When it reaches zero the packet returns to the fabric's freelist.
	refs int
}

// HeaderInto renders the bytes the packet filter engine matches — dst
// port at 0 (32 bits), src port at 4 (32 bits), flags at 8 — into buf
// (len >= 9), returning buf[:9]. The receive path reuses one per-NIC
// buffer: the filter engine matches and never retains.
func (p *Packet) HeaderInto(buf []byte) []byte {
	_ = buf[8]
	binary.BigEndian.PutUint32(buf[0:], p.DstPort)
	binary.BigEndian.PutUint32(buf[4:], p.SrcPort)
	buf[8] = p.Flags
	return buf[:9]
}

// Header renders the match bytes into a fresh slice.
func (p *Packet) Header() []byte {
	return p.HeaderInto(make([]byte, 9))
}
