package a

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 {
		t.Fail()
	}
}
