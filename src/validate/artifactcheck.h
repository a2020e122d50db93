/**
 * @file
 * Offline artifact integrity checking — the engine behind the
 * `palmtrace fsck` subcommand.
 *
 * An artifact is clean only when it fully parses: the frame header
 * (magic, version, length, checksum) must validate AND the payload
 * must deserialize structurally. Checking both layers means fsck
 * catches corruption that a checksum alone cannot attribute (legacy
 * v1 files carry no checksum) and attributes it to a field and byte
 * offset.
 */

#ifndef PT_VALIDATE_ARTIFACTCHECK_H
#define PT_VALIDATE_ARTIFACTCHECK_H

#include <string>

#include "base/artifact.h"
#include "base/loaderror.h"
#include "base/types.h"

namespace pt::validate
{

/** The outcome of checking one artifact file. */
struct FsckReport
{
    std::string path;
    std::string kind = "unknown"; ///< "activity log", "snapshot", ...
    u32 version = 0;              ///< 0 when the header never parsed
    bool checksummed = false;     ///< carried a verified checksum
    u64 sizeBytes = 0;
    LoadResult result;            ///< first failure, if any
    std::string summary;          ///< one human-readable line

    bool clean() const { return result.ok(); }
};

/**
 * Reads and fully validates one artifact file. The artifact kind is
 * sniffed from the magic at offset 0, then the whole file is parsed
 * with the kind's real deserializer.
 */
FsckReport fsckArtifact(const std::string &path);

/** A structural payload parser for one artifact magic. */
using PayloadParser = LoadResult (*)(const std::vector<u8> &file);

/**
 * Registers the structural parser for @p magic. Artifact formats
 * defined in layers above pt_validate (the job journal) hook their
 * deserializers in here so fsck can fully parse them;
 * re-registering a magic replaces its parser. Formats that
 * verify their own integrity framing during parse (rather than the
 * common whole-file artifact frame) pass @p selfChecksummed so fsck
 * reports them as checksum-verified instead of legacy.
 */
void registerPayloadParser(u32 magic, PayloadParser parser,
                           bool selfChecksummed = false);

} // namespace pt::validate

#endif // PT_VALIDATE_ARTIFACTCHECK_H
