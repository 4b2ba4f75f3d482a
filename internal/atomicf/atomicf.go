// Package atomicf provides the lock-free update primitives the graph
// algorithms use in push-mode (sparse) edge traversal, where multiple
// workers may update the same destination concurrently: float64 accumulation
// and write-min, built on compare-and-swap over the value's bit pattern.
package atomicf

import (
	"math"
	"sync/atomic"
)

// AddF64 atomically adds delta to the float64 stored (as bits) in *p.
func AddF64(p *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(p)
		newVal := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(p, old, newVal) {
			return
		}
	}
}

// LoadF64 atomically loads the float64 stored in *p.
func LoadF64(p *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(p))
}

// F64Bits converts a float64 slice-compatible value for initialization.
func F64Bits(v float64) uint64 { return math.Float64bits(v) }

// F64From converts stored bits back to float64 (non-atomic).
func F64From(b uint64) float64 { return math.Float64frombits(b) }

// MinI64 atomically lowers *p to v if v < *p; reports whether it wrote.
func MinI64(p *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return true
		}
	}
}

// MinU32 atomically lowers *p to v if v < *p; reports whether it wrote.
func MinU32(p *uint32, v uint32) bool {
	for {
		old := atomic.LoadUint32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint32(p, old, v) {
			return true
		}
	}
}

// CASI32 performs a single compare-and-swap on an int32 (re-exported for
// symmetric call sites in the algorithms).
func CASI32(p *int32, old, new int32) bool {
	return atomic.CompareAndSwapInt32(p, old, new)
}
