/**
 * @file
 * The hot dynamic-programming kernels of the paper (Fig 1) — plus
 * the Sankoff parsimony kernel of the section-VIII extension — as
 * mpc IR, plus the runtime bridge that executes them on the simulated
 * POWER5-class machine and validates results against the native bio
 * library.
 *
 * Each kernel has two IR builders:
 *
 *  - the *branchy* builder mirrors the applications' C code naively:
 *    max() statements are cmp+branch hammocks, and some updates go
 *    through memory exactly as the original sources do (Clustalw's F
 *    row, HMMER2's imx row).  Hammocks with stores or unprovable loads
 *    inside are what gcc's if-converter must reject (paper IV-B).
 *
 *  - the *hand* builder is the human rewrite: values held in
 *    registers, max() sites expressed directly as Max/Select IR at
 *    the sites a programmer identifies by inspection.  For Fasta and
 *    Blast the hand version deliberately leaves the less obvious
 *    hammocks (gap-row updates, x-drop bookkeeping) branchy, which is
 *    why the compiler beats the hand insertion there (paper VI-A).
 *
 * Kernel <-> application mapping (paper Fig 1):
 *   ForwardPass  - Clustalw forward_pass   (global NW, affine gaps)
 *   Dropgsw      - Fasta ssearch/dropgsw   (local SW, affine gaps)
 *   P7Viterbi    - Hmmer hmmpfam           (Plan7 Viterbi)
 *   SemiGAlign   - Blast blastp            (x-drop gapped extension)
 *
 * One kernel invocation is a kernels::Invocation: a variant over the
 * four problem descriptions.  KernelMachine::run takes one, marshals
 * it into simulated memory, runs it and checks the score against the
 * native reference.  SyntheticInputs is the one canned-input set
 * (seed + scale) that bp5-serve jobs and bp5-trace --kernel run, and
 * the *FromName lookups are the one name table both front ends parse.
 */

#ifndef BIOPERF5_KERNELS_KERNELS_H
#define BIOPERF5_KERNELS_KERNELS_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bio/align.h"
#include "bio/hmm.h"
#include "bio/parsimony.h"
#include "mpc/compiler.h"
#include "sim/machine.h"

namespace bp5::kernels {

/** The paper's four kernels. */
enum class KernelKind
{
    ForwardPass,
    Dropgsw,
    P7Viterbi,
    SemiGAlign,
    Sankoff, ///< extension: Phylip-class parsimony (paper section VIII)
    NUM_KERNELS,
};

/** Kernel function name as the applications name it. */
const char *kernelName(KernelKind k);

/** Application that owns the kernel (paper's workload names). */
const char *kernelApp(KernelKind k);

/**
 * Build the kernel's IR.
 * @param hand true for the hand-annotated builder
 */
mpc::Function buildKernelIr(KernelKind k, bool hand);

/** Compile kernel @p k in variant @p v (selects the right builder). */
mpc::Compiled compileKernel(KernelKind k, mpc::Variant v);

// --------------------------------------------------------------------
// Problems: native-side descriptions of one kernel invocation.
// --------------------------------------------------------------------

/** Pairwise-alignment invocation (ForwardPass / Dropgsw). */
struct AlignProblem
{
    const bio::Sequence *a = nullptr;
    const bio::Sequence *b = nullptr;
    const bio::SubstitutionMatrix *matrix = nullptr;
    bio::GapPenalty gap{10, 1};
};

/** P7Viterbi invocation. */
struct ViterbiProblem
{
    const bio::Plan7Model *model = nullptr;
    const bio::Sequence *seq = nullptr;
};

/** Semi-gapped x-drop extension invocation (one direction, forward). */
struct ExtendProblem
{
    const bio::Sequence *a = nullptr; ///< query suffix from aFrom
    size_t aFrom = 0;
    const bio::Sequence *b = nullptr;
    size_t bFrom = 0;
    const bio::SubstitutionMatrix *matrix = nullptr;
    bio::GapPenalty gap{10, 1};
    int xdrop = 30;
};

/**
 * Sankoff small-parsimony invocation: one site of the Phylip-class
 * phylogeny workload (the paper's stated extension target).
 */
struct SankoffProblem
{
    const bio::GuideTree *tree = nullptr;
    std::span<const uint8_t> states; ///< leaf states, one per leaf
    const bio::ParsimonyCost *cost = nullptr;
};

/**
 * One kernel invocation.  A problem converts to it implicitly, so
 * km.run(problem) reads as before; the alternative must match the
 * machine's kernel (AlignProblem for ForwardPass and Dropgsw).
 */
using Invocation =
    std::variant<AlignProblem, ViterbiProblem, ExtendProblem, SankoffProblem>;

// --------------------------------------------------------------------
// Native references that the simulated kernels must match exactly.
// --------------------------------------------------------------------

/** Reference for ForwardPass: identical to bio::nwScore. */
int64_t refForwardPass(const AlignProblem &p);

/** Reference for Dropgsw: identical to bio::swScore. */
int64_t refDropgsw(const AlignProblem &p);

/** Reference for P7Viterbi (plain 64-bit adds, no saturation). */
int64_t refViterbi(const ViterbiProblem &p);

/**
 * Reference for SemiGAlign: full-row affine DP with per-cell x-drop
 * clamping and dead-row termination (the kernel's exact semantics;
 * see DESIGN.md for the relation to bio::semiGappedExtend).
 */
int64_t refSemiGAlign(const ExtendProblem &p);

/** Reference for Sankoff: bio::sankoffSite. */
int64_t refSankoff(const SankoffProblem &p);

// --------------------------------------------------------------------
// Simulated execution.
// --------------------------------------------------------------------

/**
 * A machine loaded with one compiled kernel.  Successive run() calls
 * keep branch predictors, BTAC and caches warm (like repeated calls
 * inside the real application); counters accumulate across calls.
 */
class KernelMachine
{
  public:
    KernelMachine(KernelKind kind, mpc::Variant variant,
                  const sim::MachineConfig &config);

    KernelKind kind() const { return kind_; }
    const mpc::Compiled &compiled() const { return compiled_; }

    /**
     * Run one invocation with full timing; checks the result against
     * the native reference (panics on mismatch — the compiled kernel
     * would be silently wrong otherwise — and on a problem of another
     * kernel's kind).
     * @return the kernel's score
     */
    int64_t run(const Invocation &inv);

    /**
     * Return the machine to its just-constructed state: cold caches,
     * predictors and BTAC, zeroed counters, sampling off, trace sink
     * detached.  The compiled kernel stays loaded, and so do its
     * decoded micro-ops (re-checked against memory when next run).
     * Lets a driver or a serve shard reuse one KernelMachine across
     * experiment points and jobs with results identical to
     * constructing a fresh one each time, at a cost of a few
     * microseconds, independent of the cache sizes (sim::Machine::reset).
     */
    void reset();

    /** Counters accumulated over all run() calls. */
    const sim::Counters &totals() const { return totals_; }

    /** The underlying machine (cache/BTAC stats inspection). */
    const sim::Machine &machine() const { return machine_; }

    /**
     * Attach a caller-owned trace sink (obs::PmuSampler for the Fig-2
     * timeline, obs::SiteProfileSink for per-PC profiles, several
     * through an obs::TraceMux, ...).  Non-owning; nullptr detaches,
     * and reset() detaches.
     */
    void setTraceSink(sim::TraceSink *sink) { machine_.setTraceSink(sink); }

    /** Run functionally only (fast, no cycle counts). */
    void setFunctionalOnly(bool f) { functionalOnly_ = f; }

    /**
     * SMARTS-style sampled timing for subsequent run() calls (see
     * sim::SamplingParams): detailed measurement windows separated by
     * warmed functional fast-forward.  Architectural counts in
     * totals() stay exact; cycle/event counters are window
     * extrapolations.  Cleared by reset().
     */
    void setSampling(const sim::SamplingParams &p)
    {
        machine_.setSampling(p);
    }

  private:
    KernelKind kind_;
    mpc::Variant variant_;
    mpc::Compiled compiled_;
    sim::Machine machine_;
    sim::Counters totals_;
    bool functionalOnly_ = false;
};

/**
 * Machines keyed by (kernel, variant, machine config), each recycled
 * through KernelMachine::reset(): reset-equivalence makes a reused
 * machine indistinguishable from a fresh one, so pooled runs keep
 * their counters bit-identical to standalone runs.  Not thread-safe;
 * each worker or shard owns one.
 */
class MachinePool
{
  public:
    /**
     * The pooled machine for the key, reset; constructs (compiles,
     * lints and loads) it on first use.
     */
    KernelMachine &acquire(KernelKind kind, mpc::Variant variant,
                           const sim::MachineConfig &config);

  private:
    struct Entry
    {
        KernelKind kind;
        mpc::Variant variant;
        sim::MachineConfig config;
        std::unique_ptr<KernelMachine> km;
    };

    std::vector<Entry> entries_;
};

// --------------------------------------------------------------------
// Canned inputs and name lookups shared by bp5-serve and bp5-trace.
// --------------------------------------------------------------------

/**
 * Deterministic synthetic inputs for one kernel, pure in (kind, seed,
 * n), and the invocations over them:
 *   ForwardPass, Dropgsw: one random length-n protein pair;
 *   SemiGAlign:           one length-n query/subject pair;
 *   P7Viterbi:            a Plan7 model of a 5-member length-n family,
 *                         one invocation per member;
 *   Sankoff:              the UPGMA tree of an 8-leaf length-n DNA
 *                         family and its leaf states, one invocation
 *                         per column.
 * An invocation is built on request and points into this object,
 * which therefore neither copies nor moves.
 */
class SyntheticInputs
{
  public:
    SyntheticInputs(KernelKind kind, uint64_t seed, unsigned n);
    SyntheticInputs(const SyntheticInputs &) = delete;
    SyntheticInputs &operator=(const SyntheticInputs &) = delete;

    /** Number of invocations. */
    size_t size() const;

    /** Invocation @p i, 0 <= i < size(). */
    Invocation invocation(size_t i) const;

  private:
    KernelKind kind_;
    std::vector<bio::Sequence> seqs_; ///< all kinds but Sankoff
    bio::Plan7Model model_;
    bio::GuideTree tree_;
    size_t leaves_ = 0;
    /// Sankoff leaf states, column-major: site i is
    /// [i * leaves_, (i + 1) * leaves_).
    std::vector<uint8_t> states_;
    bio::ParsimonyCost cost_ = bio::ParsimonyCost::transitionTransversion();
};

// Case/punctuation-insensitive name lookups ("comp. isel" matches
// "compisel"); each returns false on an unknown name.

/** Kernel name or owning application ("dropgsw", "fasta", ...). */
bool kernelFromName(const std::string &name, KernelKind &out);

/** Variant by the paper's display name ("comp. max"), or "baseline". */
bool variantFromName(const std::string &name, mpc::Variant &out);

/** Machine preset (baseline|btac|fxu3|fxu4|enhanced). */
bool machineFromName(const std::string &name, sim::MachineConfig &out);

/** Overlay a memory system (classic|lsq|lsq+nextline|lsq+stride). */
bool memsysFromName(const std::string &name, sim::MachineConfig &mc);

/** The lookups' key form of @p s: lower-case letters and digits only. */
std::string normalizedName(const std::string &s);

/** Simulated-memory layout constants. */
constexpr uint64_t kCodeBase = 0x10000;
constexpr uint64_t kDataBase = 0x200000;
constexpr uint64_t kStackTop = 0x7f0000;

} // namespace bp5::kernels

#endif // BIOPERF5_KERNELS_KERNELS_H
