/**
 * @file
 * Differential fuzzing of the whole compilation pipeline: random IR
 * functions (arithmetic, loads/stores, selects, hammocks, diamonds,
 * counted loops) are executed by the reference IR interpreter and by
 * every compiler variant on the simulated machine.  Return values and
 * all memory side effects must agree bit-for-bit.
 */

#include <gtest/gtest.h>

#include "ir_interp.h"
#include "mpc/compiler.h"
#include "sim/machine.h"
#include "support/random.h"

namespace bp5::mpc {
namespace {

constexpr uint64_t kScratch = 0x40000;
constexpr size_t kScratchSize = 512;

/** Random-function builder state. */
struct FuzzGen
{
    Rng rng;
    Function fn;
    IrBuilder b;
    std::vector<VReg> pool; ///< integer values usable as operands
    VReg ptr;               ///< scratch-region base pointer (arg 3)

    explicit FuzzGen(uint64_t seed) : rng(seed), b(fn)
    {
        fn.name = "fuzz" + std::to_string(seed);
        b.declareArgs(4);
        pool = {0, 1, 2};
        ptr = 3;
        b.setBlock(b.newBlock("entry"));
    }

    VReg pick() { return pool[rng.below(pool.size())]; }

    Cond
    cond()
    {
        return static_cast<Cond>(rng.below(6));
    }

    /** One straight-line statement appended to the current block. */
    void
    statement(bool allowMemory)
    {
        switch (rng.below(allowMemory ? 10 : 7)) {
          case 0:
            pool.push_back(b.add(pick(), pick()));
            break;
          case 1:
            pool.push_back(b.sub(pick(), pick()));
            break;
          case 2:
            pool.push_back(b.mul(pick(), pick()));
            break;
          case 3:
            pool.push_back(b.xor_(pick(), pick()));
            break;
          case 4:
            pool.push_back(b.addi(pick(), rng.range(-1000, 1000)));
            break;
          case 5:
            pool.push_back(b.max(pick(), pick()));
            break;
          case 6:
            pool.push_back(b.select(cond(), pick(), pick(), pick(),
                                    pick()));
            break;
          case 7: { // load
            unsigned sizes[4] = {1, 2, 4, 8};
            unsigned size = sizes[rng.below(4)];
            int64_t off = static_cast<int64_t>(
                rng.below(kScratchSize / 8 - 1) * 8);
            pool.push_back(b.load(ptr, off, size, rng.chance(0.5),
                                  rng.chance(0.5)));
            break;
          }
          case 8: { // store (8-byte aligned doubleword)
            int64_t off = static_cast<int64_t>(
                rng.below(kScratchSize / 8) * 8);
            b.store(pick(), ptr, off);
            break;
          }
          case 9:
            pool.push_back(b.min(pick(), pick()));
            break;
        }
    }

    /** An if-then hammock (sometimes with a store: unconvertible). */
    void
    hammock()
    {
        int then = b.newBlock("f_then");
        int join = b.newBlock("f_join");
        VReg target = pick();
        b.br(cond(), pick(), pick(), then, join);
        b.setBlock(then);
        size_t outer = pool.size(); // side-local values must not leak:
                                    // they are undefined on the
                                    // fall-through path
        unsigned n = 1 + unsigned(rng.below(3));
        for (unsigned k = 0; k < n; ++k)
            statement(rng.chance(0.3)); // occasional unsafe content
        b.copyTo(target, pick());
        b.jump(join);
        pool.resize(outer);
        b.setBlock(join);
    }

    /** An if-then-else diamond. */
    void
    diamond()
    {
        int then = b.newBlock("f_dt");
        int els = b.newBlock("f_de");
        int join = b.newBlock("f_dj");
        VReg target = pick();
        b.br(cond(), pick(), pick(), then, els);
        size_t outer = pool.size();
        b.setBlock(then);
        statement(false);
        b.copyTo(target, pick());
        b.jump(join);
        pool.resize(outer);
        b.setBlock(els);
        statement(false);
        b.copyTo(target, pick());
        b.jump(join);
        pool.resize(outer);
        b.setBlock(join);
    }

    /** A counted do-while loop with a small fixed trip count. */
    void
    loop()
    {
        VReg i = b.iconst(0);
        VReg limit = b.iconst(rng.range(1, 5));
        int body = b.newBlock("f_loop");
        int exit = b.newBlock("f_exit");
        b.jump(body);
        b.setBlock(body);
        unsigned n = 1 + unsigned(rng.below(3));
        for (unsigned k = 0; k < n; ++k)
            statement(true);
        b.copyTo(i, b.addi(i, 1));
        b.br(Cond::LT, i, limit, body, exit);
        b.setBlock(exit);
    }

    Function
    build()
    {
        unsigned n = 8 + unsigned(rng.below(20));
        bool hadLoop = false;
        for (unsigned k = 0; k < n; ++k) {
            double roll = rng.uniform();
            if (roll < 0.60) {
                statement(true);
            } else if (roll < 0.78) {
                hammock();
            } else if (roll < 0.90) {
                diamond();
            } else if (!hadLoop) {
                loop();
                hadLoop = true;
            } else {
                statement(true);
            }
        }
        // Mix a few live values into the result.
        VReg r = pick();
        r = b.xor_(r, pick());
        r = b.add(r, pick());
        b.ret(r);
        return std::move(fn);
    }
};

/** Fill the scratch region deterministically. */
void
fillScratch(sim::Memory &mem, uint64_t seed)
{
    Rng r(seed * 17 + 5);
    for (size_t i = 0; i < kScratchSize; ++i)
        mem.writeU8(kScratch + i, static_cast<uint8_t>(r.next()));
}

class MpcFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MpcFuzz, AllVariantsMatchInterpreter)
{
    uint64_t seed = 90000 + static_cast<uint64_t>(GetParam());
    FuzzGen gen(seed);
    Function fn = gen.build();
    fn.verify();

    std::vector<int64_t> args = {
        gen.rng.range(-100, 100),
        gen.rng.range(-100, 100),
        gen.rng.range(0, 50),
        static_cast<int64_t>(kScratch),
    };

    // Reference: the IR interpreter.
    sim::Memory refMem;
    fillScratch(refMem, seed);
    InterpResult ref = interpret(fn, args, refMem, 10'000'000);
    ASSERT_TRUE(ref.finished) << "interpreter hit the step limit";

    for (int v = 0; v < int(Variant::NUM_VARIANTS); ++v) {
        Variant var = static_cast<Variant>(v);
        Compiled c = compile(fn, optionsFor(var));

        sim::Machine m;
        masm::Program p = c.program(0x10000);
        m.loadProgram(p);
        fillScratch(m.mem(), seed);
        m.state().pc = p.base;
        m.state().gpr[1] = 0x200000; // spill stack
        for (size_t i = 0; i < args.size(); ++i)
            m.state().gpr[3 + i] = static_cast<uint64_t>(args[i]);
        sim::RunResult r = m.runFunctional(50'000'000);
        ASSERT_TRUE(r.halted) << variantName(var);
        EXPECT_EQ(r.exitCode, ref.value)
            << "seed " << seed << " variant " << variantName(var);

        // Memory side effects must match byte-for-byte.
        for (size_t i = 0; i < kScratchSize; ++i) {
            ASSERT_EQ(m.mem().readU8(kScratch + i),
                      refMem.readU8(kScratch + i))
                << "seed " << seed << " variant " << variantName(var)
                << " scratch byte " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpcFuzz, ::testing::Range(0, 40));

} // namespace
} // namespace bp5::mpc
