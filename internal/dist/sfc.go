package dist

import "repro/internal/mem"

// sfcOrder is the quantization depth of the space-filling curves: coordinates
// are snapped to a 2^sfcOrder × 2^sfcOrder grid, giving 32-bit curve keys.
const sfcOrder = 16

// Hilbert distributes nodes with 2D coordinates over pes PEs by Hilbert
// space-filling-curve ordering with unit node weights; see HilbertWeighted.
func Hilbert(x, y []float64, pes int) []int32 {
	return HilbertWeighted(x, y, nil, pes)
}

// HilbertWeighted sorts the nodes by their position along a Hilbert curve
// through the bounding box and cuts the sorted order into pes node-weight
// balanced ranges. Compared to RCB this needs a single radix sort instead of
// a selection per bisection level, and the curve's locality keeps most mesh
// edges inside a range; it is the "cheap geometric" alternative to §3.3's
// RCB. w == nil means unit weights. Deterministic: key ties break by node id.
func HilbertWeighted(x, y []float64, w []int64, pes int) []int32 {
	return sfcAssign(x, y, w, pes, hilbertKey, nil)
}

// Morton is like Hilbert but orders by Morton (Z-order) keys: marginally
// cheaper per node, slightly worse locality at the quadrant seams. Kept as a
// comparison point for the SFC family.
func Morton(x, y []float64, pes int) []int32 {
	return sfcAssign(x, y, nil, pes, mortonKey, nil)
}

// sfcAssign quantizes coordinates, keys every node by its curve position and
// cuts the curve order into weighted ranges; scratch and the result come from
// a (nil = allocate).
func sfcAssign(x, y []float64, w []int64, pes int, key func(qx, qy uint32) uint64, a *mem.Arena) []int32 {
	n := len(x)
	if pes <= 1 || n == 0 {
		return allOnPE0(a, n)
	}
	qx := quantize(x)
	qy := quantize(y)
	keys := make([]uint64, n)
	for v := range keys {
		keys[v] = key(qx[v], qy[v])
	}
	return cutCurve(keys, w, pes, a)
}

// cutCurve orders the nodes by curve key — ties by ascending node id, which
// the stable radix sort keeps — and cuts the order into pes node-weight
// balanced ranges.
func cutCurve(keys []uint64, w []int64, pes int, a *mem.Arena) []int32 {
	n := len(keys)
	order, tmp := a.Uint64(n), a.Uint64(n)
	mem.SortKeyedWords(order, tmp, 2, func(v int32, word int) uint32 {
		return uint32(keys[v] >> (32 - 32*word))
	}, nil)
	a.PutUint64(tmp)
	ow := a.Int64(n)
	for i, o := range order {
		ow[i] = weightAt(w, mem.KeyedIdx(o))
	}
	ranges := weightedRangesInto(a.Int32(n), ow, pes)
	a.PutInt64(ow)
	assign := a.Int32(n)
	for i, o := range order {
		assign[mem.KeyedIdx(o)] = ranges[i]
	}
	a.PutInt32(ranges)
	a.PutUint64(order)
	return assign
}

// quantize maps coordinates linearly onto the [0, 2^sfcOrder) integer grid.
// A degenerate axis (all values equal) maps to 0.
func quantize(c []float64) []uint32 {
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
	scale := float64((uint32(1)<<sfcOrder)-1) / (hi - lo)
	for i, v := range c {
		q[i] = uint32((v - lo) * scale)
	}
	return q
}

// hilbertKey converts grid coordinates to the distance along the Hilbert
// curve of order sfcOrder (the classical rotate-and-flip formulation).
func hilbertKey(qx, qy uint32) uint64 {
	var d uint64
	for s := uint32(1) << (sfcOrder - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if qx&s > 0 {
			rx = 1
		}
		if qy&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate the quadrant so the curve stays continuous.
		if ry == 0 {
			if rx == 1 {
				const n = uint32(1) << sfcOrder
				qx = n - 1 - qx
				qy = n - 1 - qy
			}
			qx, qy = qy, qx
		}
	}
	return d
}

// mortonKey interleaves the bits of the grid coordinates (Z-order).
func mortonKey(qx, qy uint32) uint64 {
	return spreadBits(qx) | spreadBits(qy)<<1
}

// spreadBits inserts a zero bit between consecutive bits of the low 32 bits.
func spreadBits(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
