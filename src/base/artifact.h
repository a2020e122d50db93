/**
 * @file
 * Versioned integrity framing for palmtrace's on-disk artifacts.
 *
 * The paper's methodology rests on artifacts surviving the round trip
 * device -> desktop -> emulator, so every artifact written since
 * format version 2 carries a 24-byte integrity header:
 *
 *   +0   u32 magic       per-format tag ("PTAL", "PTSS", "PTCP")
 *   +4   u32 version     format version (kFramedVersion)
 *   +8   u64 payloadLen  exact payload byte count
 *   +16  u64 payloadFnv  FNV-1a 64-bit checksum of the payload
 *   +24  payload
 *
 * Seed-era (version 1) files — magic, version, payload, with no length
 * or checksum — still load through the same unframe() path; they are
 * flagged as unchecksummed legacy and their payload is validated
 * structurally (exact consumption, bounded sizes) instead.
 */

#ifndef PT_BASE_ARTIFACT_H
#define PT_BASE_ARTIFACT_H

#include <vector>

#include "loaderror.h"
#include "types.h"

namespace pt::artifact
{

/** Per-format magic tags (little-endian u32 at file offset 0). */
inline constexpr u32 kLogMagic = 0x5054414C;        // "PTAL"
inline constexpr u32 kSnapshotMagic = 0x50545353;   // "PTSS"
inline constexpr u32 kCheckpointMagic = 0x50544350; // "PTCP"
inline constexpr u32 kEpochPlanMagic = 0x50455450;  // "PTEP", retired
inline constexpr u32 kJournalMagic = 0x4C4A5450;    // "PTJL"

/** The legacy seed-era format version (no length, no checksum). */
inline constexpr u32 kLegacyVersion = 1;

/** The current framed format version. */
inline constexpr u32 kFramedVersion = 2;

/** Parsed frame header. */
struct FrameInfo
{
    u32 version = 0;
    bool checksummed = false;       ///< false for legacy files
    std::size_t payloadOffset = 0;  ///< payload start in the file
    std::size_t payloadLen = 0;
};

/** @return a human name for a known magic ("activity log", ...). */
const char *magicName(u32 magic);

/** Wraps @p payload in a current-version integrity frame. */
std::vector<u8> frame(u32 magic, const std::vector<u8> &payload);

/**
 * Validates the frame of @p file against @p magic: magic and version
 * check for both versions, plus exact length and checksum verification
 * for framed files. @p out describes the payload location on success.
 */
LoadResult unframe(const std::vector<u8> &file, u32 magic,
                   FrameInfo &out);

} // namespace pt::artifact

#endif // PT_BASE_ARTIFACT_H
