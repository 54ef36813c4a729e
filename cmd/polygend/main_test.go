package main

import "testing"

// TestParseBytes pins the -mem-budget parser: positive counts with an
// optional binary suffix are accepted; anything else — including a count
// whose scaled value would wrap int64 into a negative, which
// SetMemoryBudget would read as "no bound" — is an error.
func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"64M", 64 << 20, true},
		{"1g", 1 << 30, true},
		{"4096", 4096, true},
		{"0", 0, false},
		{"-5K", 0, false},
		{"12X", 0, false},
		{"", 0, false},
		{"9007199254740992K", 0, false}, // 2^53 × 2^10 wraps int64
		{"8589934592G", 0, false},       // 2^33 × 2^30 = 2^63
	}
	for _, c := range cases {
		got, err := parseBytes(c.in)
		if c.ok {
			if err != nil || got != c.want {
				t.Errorf("parseBytes(%q) = %d, %v; want %d, nil", c.in, got, err, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseBytes(%q) = %d, nil; want an error", c.in, got)
		}
	}
}
