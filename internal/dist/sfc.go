package dist

import "repro/internal/mem"

// sfcOrder is the per-axis quantization depth of the space-filling curves:
// coordinates are snapped to a grid of 2^sfcOrder cells per axis, giving
// 32-bit curve keys in 2D and 48-bit keys in 3D.
const sfcOrder = 16

// sfcAssign sorts the nodes by their position along a Hilbert curve through
// the bounding box of their coordinates — dims holds one slice per dimension,
// two or three, the shape graph.CoordSlices returns — and cuts the sorted
// order into pes node-weight balanced ranges. Compared to RCB this needs a
// single radix sort instead of a selection per bisection level, and the
// curve's locality keeps most mesh edges inside a range; it is the "cheap
// geometric" alternative to §3.3's RCB. w == nil means unit weights.
// Deterministic: key ties break by node id. Scratch and the result come from
// a (nil = allocate).
func sfcAssign(dims [][]float64, w []int64, pes int, a *mem.Arena) []int32 {
	n := len(dims[0])
	if pes <= 1 || n == 0 {
		return allOnPE0(a, n)
	}
	qx, qy := quantize(dims[0]), quantize(dims[1])
	keys := make([]uint64, n)
	if len(dims) == 3 {
		qz := quantize(dims[2])
		for v := range keys {
			keys[v] = hilbert3DKey(qx[v], qy[v], qz[v])
		}
	} else {
		for v := range keys {
			keys[v] = hilbertKey(qx[v], qy[v])
		}
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
