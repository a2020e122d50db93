/**
 * @file
 * The palmtrace command-line contract, checked on the built binary.
 *
 * One table of command lines and the exit code and stderr text each
 * must produce: flags another subcommand owns, values that are not
 * whole decimal numbers or fall out of range, and retired spellings
 * exit 2 naming the flag, while every spelling CI and the README use
 * still runs. Each run has a timeout, so a command line that starts
 * an unbounded loop fails its case instead of hanging the suite.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

namespace fs = std::filesystem;

/** What one run of the binary did. */
struct Outcome
{
    int code = -1; ///< exit status; 128 + N when killed by signal N
    bool timedOut = false;
    std::string out; ///< stdout
    std::string err; ///< stderr
};

/** The first 64 KB of @p path: a runaway command may write far more. */
std::string
slurp(const std::string &path)
{
    std::string text(64 * 1024, '\0');
    std::size_t n = 0;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        n = std::fread(text.data(), 1, text.size(), f);
        std::fclose(f);
    }
    text.resize(n);
    return text;
}

/** A scratch directory per test, removed when the test ends. */
class Cli : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = fs::path(testing::TempDir()) /
              ("pt_cli_" + std::to_string(::getpid()));
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir);
    }

    /** @p args with "@/" replaced by the scratch directory. */
    std::vector<std::string>
    expand(const std::vector<std::string> &args) const
    {
        std::vector<std::string> out;
        for (std::string a : args) {
            if (a.rfind("@/", 0) == 0)
                a = (dir / a.substr(2)).string();
            out.push_back(a);
        }
        return out;
    }

    /** Starts palmtrace with @p args, its output going to files
     *  named after @p tag and @p env ("NAME=value" entries) added to
     *  its environment. @return its pid. */
    pid_t
    spawn(const std::vector<std::string> &args,
          const std::string &tag = "",
          const std::vector<std::string> &env = {}) const
    {
        const std::vector<std::string> full = expand(args);
        const std::string out = (dir / (tag + "stdout")).string();
        const std::string err = (dir / (tag + "stderr")).string();
        pid_t pid = ::fork();
        if (pid == 0) {
            const rlimit noCore{0, 0};
            ::setrlimit(RLIMIT_CORE, &noCore);
            int o = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            int e = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            ::dup2(o, 1);
            ::dup2(e, 2);
            for (const std::string &kv : env)
                ::putenv(const_cast<char *>(kv.c_str()));
            std::vector<char *> argv = {const_cast<char *>(PT_PALMTRACE)};
            for (const std::string &a : full)
                argv.push_back(const_cast<char *>(a.c_str()));
            argv.push_back(nullptr);
            ::execv(PT_PALMTRACE, argv.data());
            ::_exit(127);
        }
        return pid;
    }

    /** Waits up to @p seconds for @p pid, killing it on timeout. */
    Outcome
    reap(pid_t pid, int seconds, const std::string &tag = "") const
    {
        Outcome r;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(seconds);
        int status = 0;
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (std::chrono::steady_clock::now() > deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                r.timedOut = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        r.code = WIFEXITED(status) ? WEXITSTATUS(status)
                                   : 128 + WTERMSIG(status);
        r.out = slurp((dir / (tag + "stdout")).string());
        r.err = slurp((dir / (tag + "stderr")).string());
        return r;
    }

    Outcome
    run(const std::vector<std::string> &args, int seconds = 60) const
    {
        return reap(spawn(args), seconds);
    }

    /** Runs @p args and checks the exit code and a stderr substring. */
    void
    expect(const std::vector<std::string> &args, int code,
           const std::string &stderrHas = "", int seconds = 20) const
    {
        std::string line;
        for (const std::string &a : args)
            line += " " + a;
        SCOPED_TRACE("palmtrace" + line);
        const Outcome r = run(args, seconds);
        EXPECT_FALSE(r.timedOut) << "still running after " << seconds
                                 << " s";
        EXPECT_EQ(r.code, code) << r.err;
        EXPECT_NE(r.err.find(stderrHas), std::string::npos) << r.err;
    }

    fs::path dir;
};

TEST_F(Cli, RefusesWhatASubcommandDoesNotRead)
{
    expect({"collect", "--out", "@/s", "--interactions", "1"}, 0);
    expect({"trace", "pack", "--synthetic", "2000", "@/t.ptpk"}, 0);

    const struct
    {
        std::vector<std::string> args;
        const char *stderrHas;
    } cases[] = {
        // Another subcommand's flags, and retired spellings.
        {{"replay", "@/s", "--count", "3", "--socket", "x"},
         "replay: unknown flag '--count'"},
        {{"info", "@/s", "--csv"}, "info: unknown flag '--csv'"},
        {{"submit", "--socket", "@/none.sock", "--out", "@/o",
          "--save-sessions"},
         "submit: unknown flag '--save-sessions'"},
        {{"collect", "--out", "@/c", "--timeseries-out", "@/ts.jsonl"},
         "collect: unknown flag '--timeseries-out'"},
        {{"fleet", "--out", "@/f", "--remote", "@/none.sock"},
         "fleet: unknown flag '--remote'"},
        {{"sweep", "@/s", "--journal", "@/j.ptjl"},
         "sweep: unknown flag '--journal'"},
        // Flags read only alongside another flag.
        {{"replay", "@/s", "--ts-interval", "70000"},
         "replay: --ts-interval needs --timeseries-out"},
        {{"sweep", "@/s", "--ts-interval", "70000"},
         "sweep: --ts-interval needs --timeseries-out"},
        {{"sweep", "--packed", "@/t.ptpk", "--ts-interval", "70000"},
         "sweep: --ts-interval needs --timeseries-out"},
        {{"trace", "pack", "@/t.ptpk", "@/u.ptpk", "--seed", "5"},
         "trace pack: --seed needs --synthetic"},
        {{"sweep", "@/s", "--out", "@/x.csv"},
         "sweep: --out needs --packed"},
        // Values that used to wrap, truncate or loop without end.
        {{"replay", "@/s", "--jitter", "-5"},
         "replay: --jitter -5: expected an integer in [0, 6000]"},
        {{"collect", "--out", "@/c", "--interactions", "abc"},
         "collect: --interactions abc: expected an integer in [0, "
         "65536]"},
        {{"collect", "--out", "@/c", "--interactions", "-1"},
         "--interactions -1: expected"},
        {{"disasm", "--count", "-1"},
         "disasm: --count -1: expected an integer in [1, 1048576]"},
        {{"trace", "pack", "--synthetic", "1000abc", "@/x.ptpk"},
         "trace pack: --synthetic 1000abc: expected"},
        {{"serve", "--socket", "@/s.sock", "--tcp", "abc"},
         "serve: --tcp abc: expected an integer in [0, 65535]"},
        {{"serve", "--socket", "@/s.sock", "--tcp", "65536"},
         "--tcp 65536: expected"},
        {{"serve", "--socket", "@/s.sock", "--max-sessions", "0"},
         "--max-sessions 0: expected an integer in [1, "},
        {{"sweep", "--packed", "@/t.ptpk", "--out", "@/x.csv",
          "--max-retries", "abc"},
         "sweep: unknown flag '--max-retries'"},
        {{"replay", "@/s", "--timeseries-out", "@/ts.jsonl",
          "--ts-interval", "12"},
         "replay: --ts-interval 12: expected an integer in [65536, "},
        {{"sweep", "@/s", "--timeseries-out", "@/ts.jsonl",
          "--ts-interval", "12"},
         "sweep: --ts-interval 12: expected"},
        {{"collect", "--out", "@/c", "--seed", "18446744073709551616"},
         "--seed 18446744073709551616: expected"},
        // Usage lines, generated from the command table.
        {{"info"}, "usage: palmtrace info BASE"},
        {{"info", "@/s", "@/s"}, "usage: palmtrace info BASE"},
        {{"trace", "pack", "@/t.ptpk"},
         "usage: palmtrace trace pack IN OUT | --synthetic N OUT"},
        // Unchanged behaviour: these passed before the command table.
        {{"replya"}, "did you mean 'replay'?"},
        {{"trace", "bogus"}, "trace: unknown operation 'bogus'"},
        {{"fleet", "--out", "@/f", "--count", "2", "--count", "3"},
         "flag '--count' given more than once"},
        {{"replay", "@/s", "--pack-out"}, "flag '--pack-out' needs a value"},
        {{"fleet", "--out", "@/f", "--jobs", "0"}, "--jobs 0: expected"},
    };
    for (const auto &c : cases)
        expect(c.args, 2, c.stderrHas);
    EXPECT_FALSE(fs::exists(dir / "c.log")) << "a refused collect ran";
    EXPECT_FALSE(fs::exists(dir / "u.ptpk")) << "a refused trace pack ran";
}

TEST_F(Cli, HelpListsEveryCommand)
{
    const Outcome r = run({"help"});
    EXPECT_EQ(r.code, 0);
    for (const char *name :
         {"collect", "info", "replay", "validate", "fsck", "stats",
          "sweep", "trace pack", "trace unpack", "trace info",
          "trace diff", "resume", "fleet", "serve", "submit", "disasm",
          "report", "help"})
    {
        const std::string row = "\n  " + std::string(name);
        EXPECT_TRUE(r.out.find(row + " ") != std::string::npos ||
                    r.out.find(row + "\n") != std::string::npos)
            << name;
    }
}

TEST_F(Cli, EverySpellingCiUsesStillRuns)
{
    const std::vector<std::vector<std::string>> lines = {
        {"collect", "--out", "@/s", "--seed", "7", "--interactions", "1"},
        {"info", "@/s"},
        {"validate", "@/s", "--quiet"},
        {"fsck", "@/s"},
        {"stats", "@/s"},
        {"replay", "@/s", "--profile", "--metrics-out", "@/m.json",
         "--trace-out", "@/t.json", "--timeseries-out", "@/ts.jsonl"},
        {"stats", "@/ts.jsonl"},
        {"report", "--metrics", "@/m.json", "--timeseries", "@/ts.jsonl",
         "--out", "@/r.md"},
        {"replay", "@/s", "--pack-out", "@/s.ptpk"},
        {"sweep", "@/s", "--csv"},
        {"sweep", "--packed", "@/s.ptpk", "--csv"},
        {"trace", "pack", "--synthetic", "500000", "@/fig7.ptpk"},
        {"trace", "info", "@/fig7.ptpk"},
        {"sweep", "--packed", "@/fig7.ptpk", "--out", "@/g.csv"},
        {"trace", "unpack", "@/fig7.ptpk", "@/fig7.din"},
        {"trace", "diff", "@/fig7.ptpk", "@/fig7.din"},
        {"fleet", "--out", "@/f", "--count", "2", "--scale", "0.1",
         "--seed", "9", "--jobs", "2"},
        {"fleet", "--out", "@/j", "--count", "2", "--scale", "0.1",
         "--seed", "4242", "--journal", "@/j.ptjl"},
        {"report", "--journal", "@/j.ptjl", "--out", "@/j.md"},
        {"fsck", "@/j.ptjl"},
        {"resume", "@/j.ptjl"},
        {"disasm", "--count", "8"},
    };
    for (const auto &args : lines)
        expect(args, 0, "", 60);

    // `sweep --packed --out` writes the per-config golden at any job
    // count and still prints the table.
    const std::string golden =
        slurp(PT_GOLDEN_DIR "/sweep_fig7_synthetic.csv");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(slurp((dir / "g.csv").string()), golden);
    const Outcome table = run({"sweep", "--packed", "@/fig7.ptpk", "--csv"});
    ASSERT_EQ(table.code, 0) << table.err;
    for (const char *jobs : {"1", "8"}) {
        SCOPED_TRACE(std::string("--jobs ") + jobs);
        const Outcome r = run({"sweep", "--packed", "@/fig7.ptpk", "--out",
                               "@/g-jobs.csv", "--csv", "--jobs", jobs});
        EXPECT_EQ(r.code, 0) << r.err;
        EXPECT_EQ(r.out, table.out);
        EXPECT_EQ(slurp((dir / "g-jobs.csv").string()), golden);
    }
}

TEST_F(Cli, ResumeRefusesAnEndpointForALocalJournal)
{
    // A fleet killed after its first item leaves a resumable journal.
    const Outcome crash =
        reap(spawn({"fleet", "--out", "@/cf", "--count", "2", "--scale",
                    "0.1", "--seed", "9", "--journal", "@/cf.ptjl",
                    "--jobs", "1"},
                   "", {"PT_CRASH_AFTER_ITEMS=1"}),
             60);
    ASSERT_FALSE(crash.timedOut);
    ASSERT_EQ(crash.code, 137) << crash.err;
    // The endpoint flags only mean something to a remote-fleet
    // journal; on a local one they are refused, not ignored.
    expect({"resume", "@/cf.ptjl", "--socket", "@/none.sock"}, 2,
           "resume: --socket given, but");
    expect({"resume", "@/cf.ptjl", "--tcp", "7000"}, 2,
           "is not a remote-fleet journal");
    // ... and the refusal ran nothing and left the journal resumable.
    EXPECT_FALSE(fs::exists(dir / "cf.csv"));
    expect({"resume", "@/cf.ptjl"}, 0, "", 60);
    EXPECT_TRUE(fs::exists(dir / "cf-session-0.ptpk"));
    EXPECT_TRUE(fs::exists(dir / "cf-session-1.ptpk"));
}

TEST_F(Cli, ServeAndSubmit)
{
    const pid_t server =
        spawn({"serve", "--socket", "@/serve.sock", "--jobs", "2",
               "--max-sessions", "128"},
              "serve.");
    for (int i = 0; i < 500 && !fs::exists(dir / "serve.sock"); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(fs::exists(dir / "serve.sock"));
    expect({"submit", "--socket", "@/serve.sock", "--out", "@/served",
            "--count", "2", "--scale", "0.1", "--seed", "9"},
           0, "", 60);
    ::kill(server, SIGTERM);
    const Outcome r = reap(server, 30, "serve.");
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.code, 0) << r.err;
}

TEST_F(Cli, ReportDoesNotArmTheFlightRecorder)
{
    // For `report`, --postmortem names the bundle to read. A fatal
    // signal while the report blocks on a FIFO input must not write a
    // bundle to that path.
    const fs::path fifo = dir / "metrics.fifo";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const pid_t pid = spawn({"report", "--metrics", fifo.string(),
                             "--postmortem", "@/bundle.json"});
    int writer = -1;
    for (int i = 0; i < 2000 && writer < 0; ++i) {
        writer = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
        if (writer < 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(writer, 0) << "report never opened its input";
    ::kill(pid, SIGABRT);
    const Outcome r = reap(pid, 20);
    ::close(writer);
    EXPECT_EQ(r.code, 128 + SIGABRT);
    EXPECT_FALSE(fs::exists(dir / "bundle.json"));
}

} // namespace
