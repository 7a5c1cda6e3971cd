// Command app is the deadexport fixture's program.
package main

import (
	"fmt"

	"x/internal/lib"
)

type speaker interface{ Speak() string }

func main() {
	var s speaker = lib.Called()
	f := lib.Value
	fmt.Println(lib.Used, s.Speak(), f())
	lib.Called().Sort()
	fmt.Println(lib.Report{}.Shadow)
}
