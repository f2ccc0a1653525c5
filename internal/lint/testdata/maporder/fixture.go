// Package fixture exercises maporder.
package fixture

import (
	"fmt"
	"slices"
	"sort"
)

type registry struct {
	services map[uint64]bool
	names    []string
}

// unsortedAppend leaks map order into the returned slice.
func unsortedAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "slice \"out\" built from map-range iteration is never sorted"
	}
	return out
}

// sortedAppend is the blessed Backend.Services idiom: collect, then sort.
func sortedAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sortSlice covers the sort.Slice(out, func...) closure form.
func sortSlice(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// emit prints per iteration; no later sort can repair the order.
func emit(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want "output emitted inside a map-range loop is iteration-order dependent"
	}
}

// fieldRange resolves the map through a struct field.
func (r *registry) fieldRange() {
	for id := range r.services {
		r.names = append(r.names, fmt.Sprint(id)) // want "slice \"r.names\" built from map-range iteration"
	}
}

// sliceRange must stay quiet: ranging a slice is ordered.
func sliceRange(s []string) []string {
	var out []string
	for _, v := range s {
		out = append(out, v)
	}
	return out
}

// innerUse must stay quiet: the appended slice is loop-local.
func innerUse(m map[string]int) int {
	total := 0
	for _, v := range m {
		local := []int{}
		local = append(local, v)
		total += local[0]
	}
	return total
}

// namedLikeAMap must stay quiet: m is a map in every function above, a
// slice here.
func namedLikeAMap(m []string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

type catalog struct{ entries map[string]int }

type journal struct{ entries []string } // same field name, not a map

func index() map[string]int { return nil }

// byType is decided by the subject's type: a field whose name is a slice
// elsewhere in the package, and a function's return value.
func byType(c *catalog, j *journal) []string {
	var out []string
	for k := range c.entries {
		out = append(out, k) // want "slice \"out\" built from map-range iteration is never sorted"
	}
	var keys []string
	for k := range index() {
		keys = append(keys, k) // want "slice \"keys\" built from map-range iteration is never sorted"
	}
	for _, e := range j.entries {
		keys = append(keys, e)
	}
	return append(out, keys...)
}

// slicesSort covers the package slices spellings.
func slicesSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// closureThenSort collects inside a closure and sorts in the enclosing
// function, after the statement that holds the closure.
func closureThenSort(a, b map[string]int) []string {
	var out []string
	add := func(m map[string]int) {
		for k := range m {
			out = append(out, k)
		}
	}
	add(a)
	add(b)
	slices.SortFunc(out, func(x, y string) int { return len(x) - len(y) })
	return out
}

// sortsAnother sorts a different slice; out still carries map order.
func sortsAnother(m map[string]int, other []string) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "slice \"out\" built from map-range iteration is never sorted"
	}
	sort.Strings(other)
	return out
}
