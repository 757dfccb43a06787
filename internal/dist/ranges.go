package dist

// IndexRanges assigns the n nodes to pes contiguous index ranges of
// near-equal cardinality: node v goes to PE v·pes/n. This is the §3.3
// fallback for graphs without coordinates. With n < pes the leading PEs get
// one node each and the rest stay empty.
func IndexRanges(n, pes int) []int32 {
	return indexRangesInto(make([]int32, n), pes)
}

// indexRangesInto is IndexRanges over len(assign) nodes, writing into assign.
func indexRangesInto(assign []int32, pes int) []int32 {
	n := len(assign)
	if pes <= 1 || n == 0 {
		clear(assign)
		return assign
	}
	for v := 0; v < n; v++ {
		assign[v] = int32(v * pes / n)
	}
	return assign
}

// weightedRangesInto assigns contiguous index ranges balanced by node weight:
// the prefix-sum of weights is cut at the pes-quantiles. Zero-weight nodes
// attach to whichever range their index falls into; if every weight is zero
// the split degrades to plain IndexRanges. It writes into assign (len(w), any
// contents), which it returns.
func weightedRangesInto(assign []int32, w []int64, pes int) []int32 {
	n := len(w)
	if pes <= 1 || n == 0 {
		clear(assign)
		return assign
	}
	var total int64
	for _, wv := range w {
		total += wv
	}
	if total == 0 {
		return indexRangesInto(assign, pes)
	}
	// Walk the prefix sum; advance to PE p+1 once the running weight passes
	// the cut point total·(p+1)/pes. Comparing midpoints keeps single heavy
	// nodes from dragging a whole range with them. The pe ≤ v bound stops a
	// heavy node from skipping cut points and starving intermediate PEs;
	// the forced advance near the end keeps enough nodes for the trailing
	// PEs — together they guarantee every PE is populated when n ≥ pes.
	var prefix int64
	pe := int32(0)
	for v := 0; v < n; v++ {
		half := prefix + w[v]/2
		for int(pe) < pes-1 && int(pe) < v && int64(pe+1)*total <= int64(pes)*half {
			pe++
		}
		if m := pes - n + v; m > int(pe) {
			pe = int32(m)
		}
		assign[v] = pe
		prefix += w[v]
	}
	return assign
}
