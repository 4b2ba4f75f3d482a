package numa

import "testing"

func TestDefaultTopology(t *testing.T) {
	top := Default()
	if top.Sockets != 4 || top.ThreadsPerSocket != 12 {
		t.Fatalf("Default() = %+v, want 4x12", top)
	}
	if top.Threads() != 48 {
		t.Fatalf("Threads() = %d, want 48", top.Threads())
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOrDefault(t *testing.T) {
	if got := (Topology{}).OrDefault(); got != Default() {
		t.Errorf("zero topology defaults to %+v, want %+v", got, Default())
	}
	small := Topology{Sockets: 2, ThreadsPerSocket: 3}
	if got := small.OrDefault(); got != small {
		t.Errorf("OrDefault replaced %+v with %+v", small, got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Topology{Sockets: 0, ThreadsPerSocket: 1}).Validate(); err == nil {
		t.Error("expected error for 0 sockets")
	}
	if err := (Topology{Sockets: 2, ThreadsPerSocket: -1}).Validate(); err == nil {
		t.Error("expected error for negative threads")
	}
}

func TestSocketOfThread(t *testing.T) {
	top := Default()
	cases := []struct{ tid, want int }{
		{0, 0}, {11, 0}, {12, 1}, {23, 1}, {24, 2}, {47, 3},
	}
	for _, c := range cases {
		if got := top.SocketOfThread(c.tid); got != c.want {
			t.Errorf("SocketOfThread(%d) = %d, want %d", c.tid, got, c.want)
		}
	}
}

func TestSocketOfPartition(t *testing.T) {
	top := Default()
	// 384 partitions over 4 sockets: 96 per socket.
	if got := top.SocketOfPartition(0, 384); got != 0 {
		t.Errorf("partition 0 -> socket %d", got)
	}
	if got := top.SocketOfPartition(95, 384); got != 0 {
		t.Errorf("partition 95 -> socket %d", got)
	}
	if got := top.SocketOfPartition(96, 384); got != 1 {
		t.Errorf("partition 96 -> socket %d", got)
	}
	if got := top.SocketOfPartition(383, 384); got != 3 {
		t.Errorf("partition 383 -> socket %d", got)
	}
	// degenerate: fewer partitions than sockets
	if got := top.SocketOfPartition(1, 2); got < 0 || got >= 4 {
		t.Errorf("partition 1 of 2 -> socket %d", got)
	}
	if got := top.SocketOfPartition(0, 0); got != 0 {
		t.Errorf("empty partitioning -> socket %d", got)
	}
}
