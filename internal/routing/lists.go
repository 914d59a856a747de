package routing

import (
	"math/bits"

	"ebda/internal/channel"
	"ebda/internal/topology"
)

// Shared candidate lists. A Candidates answer is read-only to its caller
// (see Algorithm), so the rule-based baselines return slices of these
// package tables instead of building a list per call. Every list is
// capacity-clipped, so a caller's append copies rather than writing into
// the table.

const (
	// listDims is the number of dimensions the shared tables cover;
	// larger networks get a fresh list per call.
	listDims = 4
	// listVCs is the highest VC the singleton table covers.
	listVCs = 4
)

// dirIndex numbers the directions: 2d for (d, +), 2d+1 for (d, -).
func dirIndex(d channel.Dim, sign channel.Sign) int {
	if sign == channel.Minus {
		return 2*int(d) + 1
	}
	return 2 * int(d)
}

// dirOf is the inverse of dirIndex.
func dirOf(i int) (channel.Dim, channel.Sign) {
	if i%2 == 1 {
		return channel.Dim(i / 2), channel.Minus
	}
	return channel.Dim(i / 2), channel.Plus
}

// units[dirIndex(d, sign)*listVCs+vc-1] is NewVC(d, sign, vc).
var units = func() []channel.Class {
	out := make([]channel.Class, 2*listDims*listVCs)
	for i := range out {
		d, sign := dirOf(i / listVCs)
		out[i] = channel.NewVC(d, sign, i%listVCs+1)
	}
	return out
}()

// unit returns the one-element list {NewVC(d, sign, vc)}.
func unit(d channel.Dim, sign channel.Sign, vc int) []channel.Class {
	if d >= 0 && int(d) < listDims && vc >= 1 && vc <= listVCs {
		i := dirIndex(d, sign)*listVCs + vc - 1
		return units[i : i+1 : i+1]
	}
	return []channel.Class{channel.NewVC(d, sign, vc)}
}

// dirSets[mask] lists, in ascending direction order, the VC-1 classes of
// the directions whose bit (1 << dirIndex) is set in mask; dirSets[0] is
// nil.
var dirSets = func() [][]channel.Class {
	out := make([][]channel.Class, 1<<(2*listDims))
	for mask := 1; mask < len(out); mask++ {
		out[mask] = maskList(uint64(mask))
	}
	return out
}()

// maskList builds the direction list of a mask (see dirSets).
func maskList(mask uint64) []channel.Class {
	out := make([]channel.Class, 0, bits.OnesCount64(mask))
	for m := mask; m != 0; m &= m - 1 {
		d, sign := dirOf(bits.TrailingZeros64(m))
		out = append(out, channel.New(d, sign))
	}
	return out
}

// dirList returns the direction list of a mask (see dirSets).
func dirList(mask uint64) []channel.Class {
	if mask < uint64(len(dirSets)) {
		return dirSets[mask]
	}
	return maskList(mask)
}

// productiveMask returns the minimal (productive) hop directions from cur
// to dst that have a link, as a dirIndex bit mask.
func productiveMask(net *topology.Network, cur, dst topology.NodeID) uint64 {
	var mask uint64
	for d := 0; d < net.Dims(); d++ {
		off := net.MinimalOffset(cur, dst, channel.Dim(d))
		if off == 0 {
			continue
		}
		sign := channel.Plus
		if off < 0 {
			sign = channel.Minus
		}
		if net.HasLink(cur, channel.Dim(d), sign) {
			mask |= 1 << dirIndex(channel.Dim(d), sign)
		}
	}
	return mask
}

// productiveDirs returns the minimal (productive) hop directions from cur
// to dst, in ascending dimension order, as a shared list.
func productiveDirs(net *topology.Network, cur, dst topology.NodeID) []channel.Class {
	return dirList(productiveMask(net, cur, dst))
}
