package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from the current flag set")

// childEnv marks a re-executed test binary that should run main() with
// -h instead of the tests: main registers its flags on the process-wide
// flag set, so the only way to enumerate them without moving code is to
// let main get as far as flag.Parse in a child process.
const childEnv = "QOSERVED_FLAGS_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "" {
		os.Exit(m.Run())
	}
	flag.Usage = func() {
		fmt.Println("qoserved")
		flag.VisitAll(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "test.") || f.Name == "update" {
				return
			}
			fmt.Printf("  -%s\t%q\t%s\n", f.Name, f.DefValue, f.Usage)
		})
	}
	os.Args = []string{"qoserved", "-h"}
	main()
}

// TestFlagsGolden pins the operator surface: every flag's name, default
// and usage string, sorted. Regenerate with
// `go test ./cmd/qoserved -run TestFlagsGolden -update`.
func TestFlagsGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"=1")
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("enumerating flags: %v", err)
	}
	const path = "testdata/flags.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("flag surface moved; rerun with -update if intended\n--- got\n%s--- want\n%s", got, want)
	}
}
