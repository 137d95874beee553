package rules_test

import (
	"fmt"

	"qoadvisor/internal/rules"
)

// ExampleCatalog_DefaultConfig shows the default rule configuration:
// everything but the off-by-default rules is enabled.
func ExampleCatalog_DefaultConfig() {
	cat := rules.NewCatalog()
	cfg := cat.DefaultConfig()
	fmt.Println("total rules:", rules.NumRules)
	fmt.Println("enabled by default:", cfg.Count())
	fmt.Println("off by default:", rules.NumRules-cfg.Count())
	// Output:
	// total rules: 256
	// enabled by default: 179
	// off by default: 77
}

// ExampleCatalog_FlipFor shows QO-Advisor's steering action: a single
// rule flip away from the default configuration.
func ExampleCatalog_FlipFor() {
	cat := rules.NewCatalog()
	off := cat.Rules(rules.OffByDefault)[0]
	flip := cat.FlipFor(off.ID)
	fmt.Println(flip) // off-by-default rules flip ON

	on := cat.Rules(rules.OnByDefault)[0]
	fmt.Println(cat.FlipFor(on.ID)) // on-by-default rules flip OFF

	cfg := cat.DefaultConfig().WithFlip(flip)
	fmt.Println("config changed:", !cfg.Equal(cat.DefaultConfig().Bitset))
	// Output:
	// +R054
	// -R012
	// config changed: true
}
