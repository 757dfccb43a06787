package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/graphio"
)

// adversarialFrame builds a frame header declaring n payload bytes without
// carrying them — the attack the budget exists for.
func adversarialFrame(n uint64) []byte {
	var head [1 + binary.MaxVarintLen64]byte
	head[0] = 'X'
	return head[:1+binary.PutUvarint(head[1:], n)]
}

func TestReadFrameRejectsOverBudgetDeclaration(t *testing.T) {
	SetMaxFrame(1 << 10)
	t.Cleanup(func() { SetMaxFrame(0) })

	// A five-byte header declaring far beyond the budget must come back as
	// a LimitError before any allocation is attempted.
	r := bufio.NewReader(bytes.NewReader(adversarialFrame(1 << 40)))
	_, _, err := ReadFrame(r)
	if !errors.Is(err, graphio.ErrLimit) {
		t.Fatalf("ReadFrame(declared 2^40) err = %v, want ErrLimit", err)
	}
	var le *graphio.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err %v is not a *graphio.LimitError", err)
	}
	if le.What != "frame" || le.Declared != 1<<40 || le.Limit != 1<<10 {
		t.Fatalf("LimitError = %+v, want frame/2^40/2^10", le)
	}
	if want := "graphio: declared frame 1099511627776 exceeds decode budget 1024"; le.Error() != want {
		t.Fatalf("error text %q, want %q", le.Error(), want)
	}
}

func TestReadFrameBudgetBoundary(t *testing.T) {
	SetMaxFrame(8)
	t.Cleanup(func() { SetMaxFrame(0) })

	// Exactly at the budget: accepted.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 'K', append(NewFrame(8), make([]byte, 8)...)); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil || kind != 'K' || len(payload) != 8 {
		t.Fatalf("frame at budget: kind=%c len=%d err=%v", kind, len(payload), err)
	}

	// One past the budget: rejected even though the payload is really there.
	buf.Reset()
	if err := WriteFrame(&buf, 'K', append(NewFrame(9), make([]byte, 9)...)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bufio.NewReader(&buf)); !errors.Is(err, graphio.ErrLimit) {
		t.Fatalf("frame over budget: err = %v, want ErrLimit", err)
	}
}

func TestMaxFrameDefaultAndRestore(t *testing.T) {
	if got := maxFrame(); got != defaultMaxFrame {
		t.Fatalf("maxFrame() = %d, want default %d", got, defaultMaxFrame)
	}
	SetMaxFrame(42)
	if got := maxFrame(); got != 42 {
		t.Fatalf("maxFrame() after Set(42) = %d", got)
	}
	SetMaxFrame(0)
	if got := maxFrame(); got != defaultMaxFrame {
		t.Fatalf("maxFrame() after Set(0) = %d, want default", got)
	}
}

func TestReadFrameTruncatedUnderBudget(t *testing.T) {
	// A truncated under-budget frame stays an io error, not a LimitError:
	// the two failure classes must not blur.
	r := bufio.NewReader(bytes.NewReader(adversarialFrame(64)))
	_, _, err := ReadFrame(r)
	if err == nil || errors.Is(err, graphio.ErrLimit) {
		t.Fatalf("truncated frame err = %v, want unexpected-EOF io error", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame err = %v, want io.ErrUnexpectedEOF", err)
	}
}
