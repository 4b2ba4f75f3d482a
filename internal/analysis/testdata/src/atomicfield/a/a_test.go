// A test file is analyzed too: go vet checks the package as its test
// variant, so the plain read below is held to bump's atomic add.
package a

import "testing"

func TestBump(t *testing.T) {
	c := newCounterSet()
	c.bump()
	if c.hits != 2 { // want `non-atomic access of counterSet\.hits`
		t.Fatal("bump lost an increment")
	}
}
