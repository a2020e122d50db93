/**
 * @file
 * The execution-engine switch: reference interpreter vs basic-block
 * translation cache.
 *
 * Both engines are bit-identical by contract (DESIGN.md §15) — same
 * cycle counts, reference stream, trap/exception behavior, and
 * checkpoint fingerprints — so the mode is a pure performance knob.
 * The process-wide default follows PT_EXEC_MODE={interp,translate}
 * (overridable with --exec-mode on the CLI) and is sampled when each
 * Cpu is constructed, which is how the switch reaches every layer
 * that builds private devices: replay, fleet workers, benches, tests.
 */

#ifndef PT_M68K_EXECMODE_H
#define PT_M68K_EXECMODE_H

#include <string>

#include "base/types.h"

namespace pt::m68k
{

/** How a Cpu executes instructions. */
enum class ExecMode : u8
{
    Interp,    ///< decode every instruction (the reference engine)
    Translate, ///< pre-decoded basic-block cache (same semantics)
};

/** @return the process default: PT_EXEC_MODE, else Interp. */
ExecMode defaultExecMode();

/** Overrides the process default (--exec-mode). */
void setDefaultExecMode(ExecMode mode);

/** @return "interp" or "translate". */
const char *execModeName(ExecMode mode);

/** Parses "interp"/"translate" into @p out. @return false on junk. */
bool parseExecMode(const std::string &text, ExecMode *out);

} // namespace pt::m68k

#endif // PT_M68K_EXECMODE_H
