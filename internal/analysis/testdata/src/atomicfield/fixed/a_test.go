// The canonical fix for atomicfield/a's test file: the test reads hits
// through sync/atomic like every other access.
package fixed

import (
	"sync/atomic"
	"testing"
)

func TestBump(t *testing.T) {
	c := newCounterSet()
	c.bump()
	if atomic.LoadInt64(&c.hits) != 2 {
		t.Fatal("bump lost an increment")
	}
}
