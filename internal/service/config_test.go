package service

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidate: the default configuration is valid, and each
// nonsensical one is rejected with an error naming what is wrong.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"empty address", func(c *Config) { c.Addr = "" }, "listen address"},
		{"zero queue", func(c *Config) { c.QueueCapacity = 0 }, "queue capacity"},
		{"zero workers", func(c *Config) { c.Workers = 0 }, "workers"},
		{"coordinator without peers", func(c *Config) { c.Coordinator, c.Peers = true, " , " }, "-peers"},
		{"negative dwell", func(c *Config) { c.HWDwell = -time.Millisecond }, "hw-dwell"},
	} {
		cfg := DefaultConfig()
		c.edit(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	coord := DefaultConfig()
	coord.Coordinator, coord.Peers = true, "http://w1:7823"
	if err := coord.Validate(); err != nil {
		t.Errorf("coordinator with one peer rejected: %v", err)
	}
}
