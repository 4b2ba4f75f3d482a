package core

// partitionHeap is a binary min-heap over the P partitions, keyed by a
// 64-bit load value with the partition index as deterministic tie-breaker.
// VEBO only ever updates the key of the current minimum (the partition that
// just received a vertex), so the heap needs push-down from the root only;
// arg-min plus update is O(log P), giving the paper's O(n log P) bound.
type partitionHeap struct {
	keys []int64 // load per partition, indexed by partition id
	heap []int   // heap of partition ids
}

func newPartitionHeap(p int) *partitionHeap {
	h := &partitionHeap{
		keys: make([]int64, p),
		heap: make([]int, p),
	}
	for i := 0; i < p; i++ {
		h.heap[i] = i
	}
	return h
}

// less orders by (key, partition id).
func (h *partitionHeap) less(a, b int) bool {
	if h.keys[a] != h.keys[b] {
		return h.keys[a] < h.keys[b]
	}
	return a < b
}

// min returns the partition with the smallest key.
func (h *partitionHeap) min() int { return h.heap[0] }

// key returns the current key of partition p.
func (h *partitionHeap) key(p int) int64 { return h.keys[p] }

// addToMin increments the minimum partition's key by delta and restores heap
// order. It returns the partition that was the minimum.
func (h *partitionHeap) addToMin(delta int64) int {
	p := h.heap[0]
	h.keys[p] += delta
	h.siftDown(0)
	return p
}

func (h *partitionHeap) siftDown(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.heap[l], h.heap[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.heap[r], h.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		i = smallest
	}
}

// maxKey scans for the maximum key (O(P); used only for reporting).
func (h *partitionHeap) maxKey() int64 {
	m := h.keys[0]
	for _, k := range h.keys[1:] {
		if k > m {
			m = k
		}
	}
	return m
}
