// Command fixture is the module the lint tests plant findings in.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/drift"
)

func main() {
	fmt.Println(a.Name("x"), drift.Stamp(), drift.Draw(1))
}
