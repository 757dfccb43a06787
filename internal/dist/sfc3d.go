package dist

import "repro/internal/mem"

// sfcOrder3D is the per-axis quantization depth of the 3D curves: 16 bits per
// axis give 48-bit curve keys, comfortably inside uint64.
const sfcOrder3D = 16

// Hilbert3DWeighted sorts nodes with 3D coordinates by their position along a
// 3D Hilbert curve through the bounding box and cuts the order into pes
// node-weight balanced ranges — the 3D counterpart of HilbertWeighted, closing
// the gap where 3D inputs used to be ordered by their x/y projection. w == nil
// means unit weights. Deterministic: key ties break by node id.
func Hilbert3DWeighted(x, y, z []float64, w []int64, pes int) []int32 {
	return sfcAssign3(x, y, z, w, pes, hilbert3DKey, nil)
}

// Hilbert3D is Hilbert3DWeighted with unit node weights.
func Hilbert3D(x, y, z []float64, pes int) []int32 {
	return Hilbert3DWeighted(x, y, z, nil, pes)
}

// Morton3D orders by 3D Morton (Z-order) keys: cheaper per node than the
// Hilbert transform but with locality jumps at every octant seam. Kept as the
// comparison point the 3D locality regression tests measure against.
func Morton3D(x, y, z []float64, pes int) []int32 {
	return sfcAssign3(x, y, z, nil, pes, morton3DKey, nil)
}

// sfcAssign3 is the 3D twin of sfcAssign.
func sfcAssign3(x, y, z []float64, w []int64, pes int, key func(qx, qy, qz uint32) uint64, a *mem.Arena) []int32 {
	n := len(x)
	if pes <= 1 || n == 0 {
		return allOnPE0(a, n)
	}
	qx := quantize3(x)
	qy := quantize3(y)
	qz := quantize3(z)
	keys := make([]uint64, n)
	for v := range keys {
		keys[v] = key(qx[v], qy[v], qz[v])
	}
	return cutCurve(keys, w, pes, a)
}

// quantize3 maps coordinates linearly onto the [0, 2^sfcOrder3D) integer
// grid. A degenerate axis (all values equal) maps to 0.
func quantize3(c []float64) []uint32 {
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	q := make([]uint32, len(c))
	if hi == lo {
		return q
	}
	scale := float64((uint32(1)<<sfcOrder3D)-1) / (hi - lo)
	for i, v := range c {
		q[i] = uint32((v - lo) * scale)
	}
	return q
}

// hilbert3DKey converts grid coordinates to the distance along the 3D Hilbert
// curve of order sfcOrder3D, via Skilling's transpose algorithm ("Programming
// the Hilbert curve", AIP 2004): first map the axes into the "transpose"
// Gray-code representation, then interleave the bits into a single index.
func hilbert3DKey(qx, qy, qz uint32) uint64 {
	x := [3]uint32{qx, qy, qz}

	// Axes → transpose (inverse undo of Skilling's TransposetoAxes).
	const m = uint32(1) << (sfcOrder3D - 1)
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
	for j := sfcOrder3D - 1; j >= 0; j-- {
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
