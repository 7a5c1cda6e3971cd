// Package lib is the deadexport fixture's internal package.
package lib

import (
	"fmt"
	"sort"
)

// Used is referenced from x/cmd/app.
const Used = 1

// Unused is not.
const Unused = 2

// Called is called from x/cmd/app.
func Called() T { return T{} }

// Value is called through a method value.
func Value() int { return Recurse(1) }

// helper is unexported, so the check never reports it.
func helper() {}

// Dead has no caller.
func Dead() { helper() }

// Recurse calls only itself and Value, so Value keeps it alive.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Lone calls only itself.
func Lone(n int) int { return Lone(n) }

// T carries methods.
type T struct{ xs []int }

// Dead has no caller.
func (T) Dead() {}

// String satisfies fmt.Stringer, which fmt calls implicitly.
func (t T) String() string { return fmt.Sprint(t.xs) }

// Len, Less and Swap satisfy sort.Interface.
func (t T) Len() int           { return len(t.xs) }
func (t T) Less(i, j int) bool { return t.xs[i] < t.xs[j] }
func (t T) Swap(i, j int)      { t.xs[i], t.xs[j] = t.xs[j], t.xs[i] }

// Speak satisfies app's speaker interface.
func (T) Speak() string { return "hi" }

// Sort sorts t.
func (t T) Sort() { sort.Sort(t) }

//lint:ignore deadexport fixture: kept for a sibling package's tests
func Fixture() {}

//lint:ignore deadexport
func BareIgnore() {}
