#include "analysis/cfg.h"

#include <deque>
#include <map>
#include <memory>
#include <set>

#include "isa/encode.h"
#include "support/logging.h"

namespace bp5::analysis {

using isa::Inst;
using isa::Op;

CodeImage
CodeImage::fromProgram(const masm::Program &prog, uint64_t entry_addr)
{
    CodeImage img;
    img.base = prog.base;
    img.entry = entry_addr ? entry_addr : prog.base;
    img.bytes = prog.image;
    img.symbols = prog.symbols;
    return img;
}

uint32_t
CodeImage::word(uint64_t pc) const
{
    BP5_ASSERT(contains(pc), "word() outside image: 0x%llx",
               (unsigned long long)pc);
    size_t off = pc - base;
    return static_cast<uint32_t>(bytes[off]) |
           static_cast<uint32_t>(bytes[off + 1]) << 8 |
           static_cast<uint32_t>(bytes[off + 2]) << 16 |
           static_cast<uint32_t>(bytes[off + 3]) << 24;
}

std::string
CodeImage::labelAt(uint64_t addr) const
{
    for (const auto &[name, a] : symbols)
        if (a == addr)
            return name;
    return "";
}

isa::SymbolResolver
CodeImage::resolver() const
{
    // Invert once; the resolver is called per rendered operand.
    auto by_addr = std::make_shared<std::map<uint64_t, std::string>>();
    for (const auto &[name, a] : symbols) {
        auto it = by_addr->find(a);
        // Deterministic pick when several labels share an address.
        if (it == by_addr->end() || name < it->second)
            (*by_addr)[a] = name;
    }
    return [by_addr](uint64_t addr) -> std::string {
        auto it = by_addr->find(addr);
        return it == by_addr->end() ? std::string() : it->second;
    };
}

namespace {

/** Branch target of a decoded B/BC at @p pc. */
uint64_t
branchTarget(const Inst &inst, uint64_t pc)
{
    return inst.aa ? static_cast<uint64_t>(inst.imm)
                   : pc + static_cast<int64_t>(inst.imm);
}

/** True when control can fall through to pc + 4. */
bool
fallsThrough(const Inst &inst, const CodeImage &image, uint64_t pc)
{
    const isa::OpInfo &info = inst.info();
    if (!info.isBranch)
        return inst.op != Op::SC || classifySyscall(image, pc) != 0;
    if (inst.lk)
        return true; // calls return to pc + 4
    if (inst.op == Op::B)
        return false; // I-form has no BO field
    return inst.bo != isa::BO_ALWAYS;
}

} // namespace

int
classifySyscall(const CodeImage &image, uint64_t sc_pc)
{
    // The compiler and the assembly idiom both select the service with
    // a `li r0, K` shortly before the `sc`.  Scan a few instructions
    // backwards; give up at anything that redefines r0, at control
    // flow, or at a spot another branch can jump to (that path may
    // carry a different selector).
    std::set<uint64_t> targets;
    for (uint64_t pc = image.base; pc + 4 <= image.end(); pc += 4) {
        Inst inst = isa::decode(image.word(pc));
        if (inst.valid() && inst.info().isBranch && inst.op != Op::BCLR &&
            inst.op != Op::BCCTR)
            targets.insert(inst.aa ? static_cast<uint64_t>(inst.imm)
                                   : pc + static_cast<int64_t>(inst.imm));
    }

    uint64_t pc = sc_pc;
    for (int steps = 0; steps < 8 && pc >= image.base + 4; ++steps) {
        pc -= 4;
        Inst prev = isa::decode(image.word(pc));
        if (!prev.valid() || prev.info().isBranch || prev.op == Op::SC)
            break;
        if (prev.op == Op::ADDI && prev.rt == 0 && prev.ra == 0)
            return prev.imm == isa::SYS_EXIT ? 0 : 1;
        unsigned deps[isa::kMaxDeps];
        unsigned n = isa::dstDeps(prev, deps);
        bool writes_r0 = false;
        for (unsigned i = 0; i < n; ++i)
            writes_r0 |= deps[i] == 0;
        if (writes_r0 || targets.count(pc))
            break;
    }
    return -1;
}

const BasicBlock *
Cfg::blockAt(uint64_t pc) const
{
    for (const BasicBlock &b : blocks)
        if (pc >= b.start && pc < b.endPc())
            return &b;
    return nullptr;
}

std::vector<std::pair<uint64_t, unsigned>>
Cfg::unreachableRuns() const
{
    std::set<uint64_t> reachable;
    for (const BasicBlock &b : blocks)
        for (const CfgInst &ci : b.insts)
            reachable.insert(ci.pc);

    std::vector<std::pair<uint64_t, unsigned>> runs;
    uint64_t run_start = 0;
    unsigned run_len = 0;
    for (uint64_t pc = image.base; pc + 4 <= image.end(); pc += 4) {
        bool dead = !reachable.count(pc) && isa::decode(image.word(pc)).valid();
        if (dead) {
            if (run_len == 0)
                run_start = pc;
            ++run_len;
        } else if (run_len) {
            runs.emplace_back(run_start, run_len);
            run_len = 0;
        }
    }
    if (run_len)
        runs.emplace_back(run_start, run_len);
    return runs;
}

size_t
Cfg::numInsts() const
{
    size_t n = 0;
    for (const BasicBlock &b : blocks)
        n += b.insts.size();
    return n;
}

std::string
Cfg::dump() const
{
    std::string out;
    isa::SymbolResolver sym = image.resolver();
    for (const BasicBlock &b : blocks) {
        out += strprintf("block %d @ 0x%llx", b.id,
                         (unsigned long long)b.start);
        std::string label = image.labelAt(b.start);
        if (!label.empty())
            out += " <" + label + ">";
        out += "  preds:";
        for (int p : b.preds)
            out += strprintf(" %d", p);
        out += "  succs:";
        for (int s : b.succs)
            out += strprintf(" %d", s);
        if (b.indirectSucc)
            out += " indirect";
        if (b.isReturn)
            out += " return";
        if (b.isExit)
            out += " exit";
        out += "\n";
        for (const CfgInst &ci : b.insts)
            out += strprintf("  0x%llx: %s\n", (unsigned long long)ci.pc,
                             isa::disassemble(ci.inst, ci.pc, sym).c_str());
    }
    return out;
}

Cfg
buildCfg(const CodeImage &image)
{
    Cfg cfg;
    cfg.image = image;

    // ----------------------------------------------------------------
    // Pass 1: discover reachable instructions and block leaders.
    // ----------------------------------------------------------------
    std::map<uint64_t, Inst> insts; // reachable pc -> decoded
    std::set<uint64_t> leaders;
    std::set<uint64_t> invalid_reported;
    std::deque<std::pair<uint64_t, uint64_t>> work; // (pc, discovered-from)

    auto enqueue = [&](uint64_t pc, uint64_t from, bool leader) {
        if (leader)
            leaders.insert(pc);
        if (!insts.count(pc))
            work.emplace_back(pc, from);
    };

    if (!image.contains(image.entry) || image.entry % 4 != 0) {
        cfg.issues.push_back({CfgIssue::BranchTargetOutside, image.entry,
                              image.entry, image.entry});
        return cfg;
    }
    enqueue(image.entry, image.entry, true);

    while (!work.empty()) {
        auto [pc, from] = work.front();
        work.pop_front();
        if (insts.count(pc))
            continue;
        Inst inst = isa::decode(image.word(pc));
        if (!inst.valid()) {
            if (invalid_reported.insert(pc).second)
                cfg.issues.push_back(
                    {CfgIssue::InvalidInstruction, pc, pc, from});
            leaders.insert(pc); // terminate the preceding block here
            continue;
        }
        insts[pc] = inst;

        const isa::OpInfo &info = inst.info();
        if (info.isBranch && inst.op != Op::BCLR && inst.op != Op::BCCTR) {
            uint64_t target = branchTarget(inst, pc);
            if (target % 4 != 0)
                cfg.issues.push_back(
                    {CfgIssue::BranchTargetUnaligned, pc, target, pc});
            else if (!image.contains(target))
                cfg.issues.push_back(
                    {CfgIssue::BranchTargetOutside, pc, target, pc});
            else
                enqueue(target, pc, true);
        }
        if (fallsThrough(inst, image, pc)) {
            if (image.contains(pc + 4)) {
                // Fall-through is a leader only after a branch/sc.
                bool ends_block = info.isBranch || inst.op == Op::SC;
                enqueue(pc + 4, pc, ends_block);
            } else {
                cfg.issues.push_back(
                    {inst.op == Op::SC && classifySyscall(image, pc) == -1
                         ? CfgIssue::MaybeFallOffEnd
                         : CfgIssue::FallOffEnd,
                     pc, pc + 4, pc});
            }
        } else if (inst.op == Op::SC && classifySyscall(image, pc) == -1 &&
                   image.contains(pc + 4)) {
            // Unprovable selector: conservatively explore both outcomes.
            enqueue(pc + 4, pc, true);
        }
    }

    if (insts.empty())
        return cfg;

    // ----------------------------------------------------------------
    // Pass 2: carve blocks.  A block ends at a branch, an sc, a gap in
    // the reachable set, or just before the next leader.
    // ----------------------------------------------------------------
    std::map<uint64_t, int> block_of_leader;
    BasicBlock cur;
    auto flush = [&] {
        if (cur.insts.empty())
            return;
        cur.id = static_cast<int>(cfg.blocks.size());
        block_of_leader[cur.start] = cur.id;
        cfg.blocks.push_back(std::move(cur));
        cur = BasicBlock{};
    };

    uint64_t prev_pc = 0;
    bool prev_ended = true;
    for (const auto &[pc, inst] : insts) {
        bool gap = !cur.insts.empty() && pc != prev_pc + 4;
        if (prev_ended || gap || leaders.count(pc))
            flush();
        if (cur.insts.empty())
            cur.start = pc;
        cur.insts.push_back({pc, inst});
        prev_pc = pc;

        const isa::OpInfo &info = inst.info();
        prev_ended = info.isBranch || inst.op == Op::SC;
    }
    flush();

    // ----------------------------------------------------------------
    // Pass 3: edges.
    // ----------------------------------------------------------------
    auto link = [&](int from, uint64_t to_pc) {
        auto it = block_of_leader.find(to_pc);
        if (it == block_of_leader.end())
            return; // target was invalid / truncated
        cfg.blocks[from].succs.push_back(it->second);
        cfg.blocks[it->second].preds.push_back(from);
    };

    for (BasicBlock &b : cfg.blocks) {
        const CfgInst &tail = b.last();
        const Inst &inst = tail.inst;
        const isa::OpInfo &info = inst.info();

        if (inst.op == Op::BCLR) {
            b.isReturn = true;
            if (inst.bo != isa::BO_ALWAYS)
                link(b.id, tail.pc + 4);
            continue;
        }
        if (inst.op == Op::BCCTR) {
            b.indirectSucc = true;
            if (inst.bo != isa::BO_ALWAYS)
                link(b.id, tail.pc + 4);
            continue;
        }
        if (info.isBranch) {
            uint64_t target = branchTarget(inst, tail.pc);
            if (target % 4 == 0 && image.contains(target))
                link(b.id, target);
            if (fallsThrough(inst, image, tail.pc))
                link(b.id, tail.pc + 4);
            continue;
        }
        if (inst.op == Op::SC) {
            int cls = classifySyscall(image, tail.pc);
            if (cls == 0) {
                b.isExit = true;
                continue;
            }
            if (image.contains(tail.pc + 4))
                link(b.id, tail.pc + 4);
            if (cls == -1)
                b.isExit = true; // may also halt
            continue;
        }
        // Straight-line block split by a leader or truncated by a gap.
        if (image.contains(tail.pc + 4))
            link(b.id, tail.pc + 4);
    }

    auto entry_it = block_of_leader.find(image.entry);
    cfg.entryBlock =
        entry_it == block_of_leader.end() ? -1 : entry_it->second;
    return cfg;
}

} // namespace bp5::analysis
