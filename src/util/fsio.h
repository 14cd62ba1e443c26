// Crash-consistency filesystem primitives shared by every durable layer
// (result cache, sweep checkpoints). The publish discipline is always the
// same: write a .tmp sibling, fsync the FILE, rename over the final name,
// fsync the DIRECTORY — a rename alone is not durable (the directory entry
// can vanish on power loss even though the data blocks survived).
//
// All functions are best-effort and never throw: durability failures are
// soft at this layer; the caller decides whether losing persistence is
// fatal (a checkpoint) or merely a cold start (a cache).
#pragma once

#include <string>
#include <string_view>

namespace ct::util {

/// fsync(2) the DIRECTORY containing `path`, making a completed rename of
/// `path` durable. False on open/sync failure.
bool fsync_parent_dir(const std::string& path) noexcept;

/// Atomic durable publish: write `contents` to "<path>.tmp", fsync the
/// file, rename onto `path`, fsync the parent directory. A reader (or a
/// post-crash reopen) sees either the complete old file or the complete
/// new one — never a prefix. False on any failure (the .tmp is removed).
bool atomic_write_file(const std::string& path,
                       std::string_view contents) noexcept;

}  // namespace ct::util
