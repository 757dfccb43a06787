package dist

// Morton3D cuts the 3D Morton (Z-order) ordering of unit-weight nodes into
// pes ranges: cheaper per node than the Hilbert transform but with locality
// jumps at every octant seam. No strategy selects it; it is the comparison
// point the 3D locality regression test measures sfcAssign against.
func Morton3D(x, y, z []float64, pes int) []int32 {
	if pes <= 1 || len(x) == 0 {
		return allOnPE0(nil, len(x))
	}
	qx, qy, qz := quantize(x), quantize(y), quantize(z)
	keys := make([]uint64, len(x))
	for v := range keys {
		keys[v] = morton3DKey(qx[v], qy[v], qz[v])
	}
	return cutCurve(keys, nil, pes, nil)
}

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

// morton3DKey interleaves the bits of the three grid coordinates (Z-order).
func morton3DKey(qx, qy, qz uint32) uint64 {
	return spread3(qx)<<2 | spread3(qy)<<1 | spread3(qz)
}

// spread3 inserts two zero bits between consecutive bits of the low 21 bits
// (the classic Morton-3D bit spread).
func spread3(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x001f00000000ffff
	x = (x | x<<16) & 0x001f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}
