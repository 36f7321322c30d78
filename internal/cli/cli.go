// Package cli holds the small helpers shared by the command-line tools:
// the named schema registry and policy-file loading.
package cli

import (
	"fmt"
	"os"
	"strings"

	"diversefw/internal/field"
	"diversefw/internal/frontend"
	"diversefw/internal/rule"
)

// SchemaNames lists the accepted -schema values.
func SchemaNames() string { return "five, four, paper" }

// Schema resolves a -schema flag value through the server's schema
// registry (field.SchemaByName, which folds case). Unlike a request, a
// flag may not be empty.
func Schema(name string) (*field.Schema, error) {
	s, err := field.SchemaByName(name)
	if err != nil || name == "" {
		return nil, fmt.Errorf("unknown schema %q (have: %s)", name, SchemaNames())
	}
	return s, nil
}

// LoadPolicy reads a policy file in the rule text format.
func LoadPolicy(schema *field.Schema, path string) (*rule.Policy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := rule.ParsePolicy(schema, f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// FormatNames lists the accepted -format values: every registered
// frontend, plus "text" as the historical alias for native.
func FormatNames() string {
	return strings.Join(frontend.Formats(), ", ") + ", text"
}

// LoadPolicyFormat reads a policy file in the given format through the
// frontend registry — the same parsers the server uses, so CLIs and
// server can never disagree. "text" and "" alias "native"; chain
// selects the chain for iptables/nftables inputs.
func LoadPolicyFormat(schema *field.Schema, path, format, chain string) (*rule.Policy, error) {
	name := strings.ToLower(format)
	if name == "" || name == "text" {
		name = frontend.DefaultFormat
	}
	if _, err := frontend.Lookup(name); err != nil {
		return nil, fmt.Errorf("unknown input format %q (have: %s)", format, FormatNames())
	}
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := frontend.Parse(name, schema, string(text), frontend.Options{Chain: chain})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
