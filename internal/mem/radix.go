package mem

// A keyed record packs a 32-bit sort key and the index of the element it
// stands for into one word — key in the high half, index in the low half —
// so that sorting an array of wide elements by a key moves 8 bytes per
// element per pass instead of the element itself. sortKeyed orders records
// by key; keys wider than 32 bits are sorted word by word, most significant
// first, re-keying and re-sorting only the runs the previous word left tied.

// keyed packs key and idx (≥ 0) into one record.
func keyed(key uint32, idx int32) uint64 { return uint64(key)<<32 | uint64(uint32(idx)) }

// KeyedIdx is the index a record carries.
func KeyedIdx(rec uint64) int32 { return int32(uint32(rec)) }

// keyedKey is the key a record carries.
func keyedKey(rec uint64) uint32 { return uint32(rec >> 32) }

// radixMin is the length below which sortKeyed insertion-sorts: counting
// four digit histograms costs more than sorting a few records directly.
const radixMin = 48

// sortKeyed sorts recs by ascending key with a least-significant-digit radix
// sort over the key's four bytes; tmp is scratch of at least len(recs). The
// sort is stable — records with equal keys keep their input order — and
// linear: one sweep counts all four digit histograms, every digit on which
// all keys agree is skipped (constant keys cost that sweep and nothing
// else), and each remaining digit is one scatter pass between recs and tmp.
//
//kappa:hotpath
func sortKeyed(recs, tmp []uint64) {
	n := len(recs)
	if n < radixMin {
		for i := 1; i < n; i++ {
			r := recs[i]
			j := i
			for ; j > 0 && recs[j-1]>>32 > r>>32; j-- {
				recs[j] = recs[j-1]
			}
			recs[j] = r
		}
		return
	}
	var hist [4][256]uint32
	for _, r := range recs {
		hist[0][byte(r>>32)]++
		hist[1][byte(r>>40)]++
		hist[2][byte(r>>48)]++
		hist[3][byte(r>>56)]++
	}
	src, dst := recs, tmp[:n]
	for d := range hist {
		h, shift := &hist[d], uint(32+8*d)
		if h[byte(src[0]>>shift)] == uint32(n) {
			continue
		}
		sum := uint32(0)
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, r := range src {
			b := byte(r >> shift)
			dst[h[b]] = r
			h[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &recs[0] {
		copy(recs, src)
	}
}

// SortKeyedWords fills recs with the indices 0..len(recs)-1 ordered by a key
// of words 32-bit words, most significant first: key(idx, w) is word w of
// element idx. Each word is one sortKeyed over the records still tied on all
// earlier words, so the cost is linear in len(recs) per word that has ties
// left to break. Elements tied on every word stay in index order — or, with
// tied non-nil, each such run is handed to it to finish. tmp is scratch of at
// least len(recs).
//
//kappa:hotpath
func SortKeyedWords(recs, tmp []uint64, words int, key func(idx int32, word int) uint32, tied func(run []uint64)) {
	for i := range recs {
		recs[i] = keyed(key(int32(i), 0), int32(i))
	}
	sortKeyedFrom(recs, tmp, 0, words, key, tied)
}

// sortKeyedFrom sorts recs, which agree on every word before word and carry
// word as their key, by word and the words after it.
//
//kappa:hotpath
func sortKeyedFrom(recs, tmp []uint64, word, words int, key func(idx int32, word int) uint32, tied func(run []uint64)) {
	sortKeyed(recs, tmp)
	last := word+1 == words
	if last && tied == nil {
		return
	}
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && keyedKey(recs[j]) == keyedKey(recs[i]) {
			j++
		}
		switch run := recs[i:j]; {
		case len(run) == 1:
		case last:
			tied(run)
		default:
			for k, r := range run {
				idx := KeyedIdx(r)
				run[k] = keyed(key(idx, word+1), idx)
			}
			sortKeyedFrom(run, tmp[i:j], word+1, words, key, tied)
		}
		i = j
	}
}
