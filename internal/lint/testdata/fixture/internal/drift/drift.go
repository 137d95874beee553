// Package drift sits where the determinism lint looks.
package drift

import (
	"math/rand"
	"time"
)

// Stamp reads the clock: the determinism lint reports it.
func Stamp() int64 { return time.Now().UnixNano() }

// Draw uses a seeded *rand.Rand, which the determinism lint allows.
func Draw(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(3) }
