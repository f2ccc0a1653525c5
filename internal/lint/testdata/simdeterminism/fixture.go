// Package fixture exercises simdeterminism: loaded by the tests once as a
// simulation package (everything marked `want` must fire) and once as an
// out-of-scope package (nothing may fire).
package fixture

import (
	"math/rand"
	"time"
	clock "time"
)

// epoch runs in the package's init, which is sim scope like any function.
var epoch = time.Now() // want "time.Now reads the wall clock"

func wallClock() {
	_ = time.Now()                     // want "time.Now reads the wall clock"
	_ = time.Since(time.Time{})        // want "time.Since reads the wall clock"
	time.Sleep(time.Millisecond)       // want "time.Sleep reads the wall clock"
	<-time.After(time.Millisecond)     // want "time.After reads the wall clock"
	_ = time.NewTimer(time.Second)     // want "time.NewTimer reads the wall clock"
	_ = time.Duration(3) * time.Second // conversions and constants are fine
	_ = time.Unix(0, 0)                // pure construction is fine
}

func globalRand() {
	_ = rand.Intn(10)                   // want "rand.Intn draws from the global math/rand source"
	_ = rand.Float64()                  // want "rand.Float64 draws from the global math/rand source"
	rand.Shuffle(1, swap)               // want "rand.Shuffle draws from the global math/rand source"
	rng := rand.New(rand.NewSource(42)) // explicit seeding is the blessed idiom
	_ = rng.Intn(10)                    // draws from a seeded *rand.Rand are fine
	_ = rand.NewZipf(rng, 1.1, 1, 100)
}

func swap(i, j int) {}

// renamedImport is still package time, whatever the file calls it.
func renamedImport() {
	_ = clock.Now() // want "time.Now reads the wall clock"
}

type simClock struct{}

func (simClock) Now() int64 { return 0 }

// shadowed calls a method on a local that merely shares the package's name.
func shadowed() {
	time := simClock{}
	_ = time.Now()
}
