package remote

import (
	"os"
	"testing"
)

// TestMain pins the fold floor to 0, so every test of the package ships
// every level it runs — the fault, store, white-box and metered tests are
// tests of the wire. A test of folding sets the floor itself with
// SetFoldFloor.
func TestMain(m *testing.M) {
	foldFloor = 0
	os.Exit(m.Run())
}

// FoldHalfEdges is the default fold floor.
const FoldHalfEdges = foldHalfEdges

// SetFoldFloor sets the fold floor for the rest of t and restores it after.
// Tests that call it must not run in parallel.
func SetFoldFloor(t *testing.T, floor int) {
	old := foldFloor
	foldFloor = floor
	t.Cleanup(func() { foldFloor = old })
}
