package atomicf

import (
	"math"
	"sync"
	"testing"
)

func TestAddF64Concurrent(t *testing.T) {
	var bits uint64
	const workers = 8
	const adds = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				AddF64(&bits, 0.5)
			}
		}()
	}
	wg.Wait()
	if got := LoadF64(&bits); got != workers*adds*0.5 {
		t.Fatalf("sum = %v, want %v", got, workers*adds*0.5)
	}
}

func TestStoreLoadF64(t *testing.T) {
	bits := F64Bits(-3.25)
	if got := LoadF64(&bits); got != -3.25 {
		t.Fatalf("got %v", got)
	}
	if F64From(F64Bits(math.Pi)) != math.Pi {
		t.Fatal("bits round trip failed")
	}
}

func TestMinI64(t *testing.T) {
	v := int64(100)
	if !MinI64(&v, 50) || v != 50 {
		t.Fatalf("MinI64 lower failed: %d", v)
	}
	if MinI64(&v, 70) || v != 50 {
		t.Fatalf("MinI64 should not raise: %d", v)
	}
	if MinI64(&v, 50) {
		t.Fatal("MinI64 equal should not write")
	}
}

func TestMinI64Concurrent(t *testing.T) {
	v := int64(math.MaxInt64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1000; i > 0; i-- {
				MinI64(&v, int64(i+w))
			}
		}(w)
	}
	wg.Wait()
	if v != 1 {
		t.Fatalf("concurrent min = %d, want 1", v)
	}
}

func TestMinU32(t *testing.T) {
	v := uint32(10)
	if !MinU32(&v, 3) || v != 3 {
		t.Fatalf("MinU32 failed: %d", v)
	}
	if MinU32(&v, 9) {
		t.Fatal("MinU32 raised")
	}
}

func TestCASI32(t *testing.T) {
	v := int32(-1)
	if !CASI32(&v, -1, 7) || v != 7 {
		t.Fatal("CAS failed")
	}
	if CASI32(&v, -1, 9) {
		t.Fatal("stale CAS succeeded")
	}
}
