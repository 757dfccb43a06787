package dist

// hilbert3DKey converts grid coordinates to the distance along the 3D Hilbert
// curve of order sfcOrder, via Skilling's transpose algorithm ("Programming
// the Hilbert curve", AIP 2004): first map the axes into the "transpose"
// Gray-code representation, then interleave the bits into a single index.
func hilbert3DKey(qx, qy, qz uint32) uint64 {
	x := [3]uint32{qx, qy, qz}

	// Axes → transpose (inverse undo of Skilling's TransposetoAxes).
	const m = uint32(1) << (sfcOrder - 1)
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < 3; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert low bits of x
			} else {
				t := (x[0] ^ x[i]) & p // exchange low bits of x and x[i]
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := m; q > 1; q >>= 1 {
		if x[2]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < 3; i++ {
		x[i] ^= t
	}

	// Interleave: bit j of axis i lands at position 3j + (2-i), so x[0]
	// carries the most significant bit of every triple.
	var d uint64
	for j := sfcOrder - 1; j >= 0; j-- {
		for i := 0; i < 3; i++ {
			d = d<<1 | uint64(x[i]>>uint(j)&1)
		}
	}
	return d
}
