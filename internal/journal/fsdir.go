package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic commits a whole file by the rename discipline every
// campaign output follows: fill writes the content into a temp sibling,
// which is fsynced, renamed onto path, and made durable by a
// parent-directory fsync. A crash at any point leaves either the old
// file or the new one — never a torn mix — plus at worst a stray
// "<name>.tmp-*" sibling that no reader looks at.
func WriteFileAtomic(path string, fill func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	// CreateTemp's 0600 suits scratch files; a campaign output is read by
	// other tools and users like any file os.Create would have made.
	err = tmp.Chmod(0o644)
	if err == nil {
		err = fill(tmp)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return SyncParentDir(path)
}

// SyncDir fsyncs a directory. Every writer in the pipeline that commits
// state by rename — artifact runs, shard outcome files, the resultstore,
// and the journal's own file creation — must call this on the parent
// directory afterwards: rename makes the new entry visible, but only a
// directory fsync makes it durable. Without it a crash can lose a
// "committed" file entirely, which is exactly the silent-loss class the
// durability layer exists to rule out. It lives here because journal is
// the dependency-free durability package every layer already imports.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: opening dir %s for fsync: %w", dir, err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: fsync dir %s: %w", dir, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: closing dir %s after fsync: %w", dir, closeErr)
	}
	return nil
}

// SyncParentDir fsyncs the directory containing path — the common case
// after renaming a temp file onto path.
func SyncParentDir(path string) error {
	return SyncDir(filepath.Dir(path))
}
