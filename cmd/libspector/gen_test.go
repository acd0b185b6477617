package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateAndVerify(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"gen", "-out", dir, "-apps", "5", "-seed", "3"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 5 apks + index.json.
	if len(entries) != 6 {
		t.Fatalf("generated %d files, want 6", len(entries))
	}
	if err := run(context.Background(), []string{"gen", "-verify", dir}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	dir := t.TempDir()
	if err := run(context.Background(), []string{"gen", "-out", dir, "-apps", "2", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".apk" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		break
	}
	if err := run(context.Background(), []string{"gen", "-verify", dir}); err == nil {
		t.Error("tampered corpus should fail verification")
	}
}

func TestGenFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"gen"}); err == nil {
		t.Error("no flags should fail")
	}
	if err := run(context.Background(), []string{"gen", "-verify", "/nonexistent-dir-xyz"}); err == nil {
		t.Error("missing dir should fail")
	}
}
