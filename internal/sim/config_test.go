package sim

import (
	"errors"
	"strings"
	"testing"

	"dxbsp/internal/core"
)

func TestNormalizeAppliesDefaults(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	c := Config{Machine: m}.Normalize()
	bm, ok := c.BankMap.(core.InterleaveMap)
	if !ok || bm.Banks != m.Banks {
		t.Errorf("BankMap = %#v, want InterleaveMap{%d}", c.BankMap, m.Banks)
	}
	if c.NetDelay != m.L/2 {
		t.Errorf("NetDelay = %g, want %g", c.NetDelay, m.L/2)
	}
	// Bank-cache defaults apply only when caching is on.
	if c.Bank.HitDelay != 0 || c.Bank.RowWords != 0 {
		t.Errorf("cache knobs defaulted while caching off: %+v", c)
	}
	// Turning row buffers on fills in their defaults (hit delay 1,
	// 32-word rows).
	cc := Config{Machine: m, Bank: BankConfig{CacheLines: 2}}.Normalize()
	if cc.Bank.CacheLines != 2 || cc.Bank.HitDelay != 1 || cc.Bank.RowWords != 32 {
		t.Errorf("cache defaults = %+v, want lines 2, hit 1, rows 32", cc.Bank)
	}
}

func TestNormalizeKeepsExplicitValues(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	c := Config{Machine: m, NetDelay: 3, Bank: BankConfig{CacheLines: 2, HitDelay: 2, RowWords: 1 << 8}}.Normalize()
	if c.NetDelay != 3 || c.Bank.HitDelay != 2 || c.Bank.RowWords != 1<<8 {
		t.Errorf("Normalize overwrote explicit values: %+v", c)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	once := Config{Machine: m, Bank: BankConfig{CacheLines: 1}}.Normalize()
	if twice := once.Normalize(); twice != once {
		t.Errorf("Normalize not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
}

func TestValidateRejectsBadKnobs(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"negative window", Config{Machine: m, Window: -1}, "Window"},
		{"negative net delay", Config{Machine: m, NetDelay: -2}, "NetDelay"},
		{"negative cache lines", Config{Machine: m, Bank: BankConfig{CacheLines: -1}}, "Bank.CacheLines"},
		{"negative hit delay", Config{Machine: m, Bank: BankConfig{CacheLines: 1, HitDelay: -1}}, "Bank.HitDelay"},
		{"bad row words", Config{Machine: m, Bank: BankConfig{CacheLines: 1, RowWords: 3}}, "Bank.RowWords"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Normalize().Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("Field = %q, want %q", ce.Field, tc.field)
			}
			if !strings.Contains(ce.Error(), tc.field) {
				t.Errorf("message %q does not name the field", ce.Error())
			}
		})
	}
}

// Run must reject what Validate rejects, as a typed error.
func TestRunReturnsConfigError(t *testing.T) {
	m := core.Machine{Name: "n", Procs: 4, Banks: 32, D: 4, G: 1, L: 10}
	_, err := Run(Config{Machine: m, Window: -3}, core.NewPattern(seqAddrs(8), 2))
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Window" {
		t.Errorf("Run error = %v, want ConfigError on Window", err)
	}
}
