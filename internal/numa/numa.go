// Package numa models the NUMA topology of the paper's evaluation machine
// (a 4-socket Xeon E7-4860 v2, 48 threads) in software. The reproduction
// cannot pin memory pages to physical sockets, but the properties the paper
// exploits are software-visible: which logical socket owns a partition's
// data, which logical thread executes it, and whether an access is
// socket-local or remote. The memsim package consumes this classification to
// reproduce the paper's local/remote LLC statistics.
package numa

import "fmt"

// Topology describes a virtual NUMA machine.
type Topology struct {
	Sockets          int
	ThreadsPerSocket int
}

// Default returns the paper's evaluation machine: 4 sockets × 12 threads.
func Default() Topology {
	return Topology{Sockets: 4, ThreadsPerSocket: 12}
}

// OrDefault returns t, or the paper's machine (Default) when t has no
// sockets: the zero Topology every engine and experiment config accepts.
func (t Topology) OrDefault() Topology {
	if t.Sockets == 0 {
		return Default()
	}
	return t
}

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Sockets <= 0 || t.ThreadsPerSocket <= 0 {
		return fmt.Errorf("numa: invalid topology %+v", t)
	}
	return nil
}

// Threads returns the total logical thread count.
func (t Topology) Threads() int { return t.Sockets * t.ThreadsPerSocket }

// SocketOfThread returns the socket on which logical thread tid runs.
// Threads are numbered socket-major: threads [s*TPS, (s+1)*TPS) live on
// socket s, matching the paper's "thread t executes partitions 8t..8t+7"
// mapping.
func (t Topology) SocketOfThread(tid int) int {
	return tid / t.ThreadsPerSocket
}

// SocketOfPartition returns the home socket of partition p when
// numPartitions partitions are distributed blockwise over sockets, as
// Polymer and GraphGrind do.
func (t Topology) SocketOfPartition(p, numPartitions int) int {
	if numPartitions <= 0 {
		return 0
	}
	per := (numPartitions + t.Sockets - 1) / t.Sockets
	s := p / per
	if s >= t.Sockets {
		s = t.Sockets - 1
	}
	return s
}
