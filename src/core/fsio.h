/**
 * @file
 * Small filesystem-durability utilities shared by the sweep engine's
 * on-disk writers (manifest, shard logs and finals, leases).
 *
 * The tmp-then-rename idiom alone only protects against *process*
 * death: after a power loss the renamed file can exist with none of
 * its data blocks on disk, or the rename itself can be lost. A write
 * is crash-durable only once (1) the data file was fsync'ed before the
 * rename and (2) the containing directory was fsync'ed after it.
 * atomicWriteFile() performs the full sequence; the incremental
 * writers use fsyncPath()/fsyncParentDir() around their own renames.
 */

#ifndef ARCHGYM_CORE_FSIO_H
#define ARCHGYM_CORE_FSIO_H

#include <cstdint>
#include <string>
#include <string_view>

namespace archgym {
namespace fsio {

/** FNV-1a 64-bit over a byte range (record checksums); pass a
 *  previous result as `hash` to checksum a concatenation piecewise. */
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ULL);

/** Write all of `bytes` to `fd`, retrying short writes and EINTR;
 *  throws std::runtime_error naming `path`. */
void writeAll(int fd, std::string_view bytes, const std::string &path);

/** fsync an existing file by path; throws std::runtime_error. */
void fsyncPath(const std::string &path);

/** fsync the directory containing `path` (after a rename into it). */
void fsyncParentDir(const std::string &path);

/**
 * Process-unique temporary sibling name for `path` (the base name
 * gains a ".tmp.<pid>.<n>" suffix). Cooperating workers may race on
 * the same target path, so a shared ".tmp" name would let two writers
 * interleave into one temporary file; a unique name makes each
 * writer's rename atomic and self-contained.
 */
std::string uniqueTmpPath(const std::string &path);

/**
 * Crash-durable whole-file replacement: write `bytes` to a unique
 * temporary sibling, fsync it, rename it over `path`, and fsync the
 * containing directory. Throws std::runtime_error on any failure
 * (the temporary is removed on the failure paths).
 */
void atomicWriteFile(const std::string &path, const std::string &bytes);

/**
 * Whole-file binary read; a missing (or unopenable) file reads as "".
 * Shared by the metadata readers (columnar index, screen record,
 * stack-distance CDF).
 */
std::string readFileIfExists(const std::string &path);

} // namespace fsio
} // namespace archgym

#endif // ARCHGYM_CORE_FSIO_H
