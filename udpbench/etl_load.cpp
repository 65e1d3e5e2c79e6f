/**
 * @file
 * Workload `etl_load`: the paper's Figure 1 pipeline as a closed loop
 * of loads.  Each request loads one Snappy-framed lineitem CSV file:
 * UDP Snappy decompress (one job per frame) -> UDP CSV parse (12 KiB
 * row-aligned chunks) -> CPU deserialize into an etl::Table.
 * Simulation is serial; one caller issues the next load when the last
 * one finished.  Oracle: the table equals etl::load_cpu's.
 */
#include "common.hpp"

#include "etl/loader.hpp"
#include "kernels/csv.hpp"
#include "kernels/snappy.hpp"
#include "runtime/kernel_spec.hpp"

#include <memory>

namespace udpbench {
namespace {

using namespace udp;

/// Distinct files the loads cycle over, and their size: ~5 frames of
/// 12 KiB each, so a load is a batch of large jobs.
constexpr std::size_t kFiles = 16;
constexpr std::size_t kRowsPerFile = 400;
/// CSV parse chunk, as etl::load_udp_offload uses: 12 KiB of rows
/// leaves room for the field stream the kernel writes after its input.
constexpr std::size_t kCsvChunk = 12 * 1024;

struct File {
    Bytes compressed;
    std::size_t csv_bytes = 0;
    std::unique_ptr<etl::Table> oracle;
    Pin pin; ///< simulated counters of loading this file
};

std::uint32_t
get_u32(BytesView in, std::size_t at)
{
    return Word{in[at]} | (Word{in[at + 1]} << 8) |
           (Word{in[at + 2]} << 16) | (Word{in[at + 3]} << 24);
}

/// Snappy payload of each frame of a compress_for_load stream, varint
/// length preamble stripped (the decompress kernel's input contract).
/// A frame is [u32 compressed length][u32 raw length][snappy stream].
std::vector<std::pair<std::size_t, std::size_t>>
frame_payloads(BytesView stream)
{
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t pos = 0;
    while (pos + 8 <= stream.size()) {
        const std::size_t clen = get_u32(stream, pos);
        pos += 8;
        if (clen == 0 || pos + clen > stream.size())
            throw UdpError("etl_load: malformed frame");
        std::size_t p = pos;
        while (stream[p] & 0x80)
            ++p;
        ++p;
        out.emplace_back(p, clen - (p - pos));
        pos += clen;
    }
    if (pos != stream.size())
        throw UdpError("etl_load: trailing bytes after the last frame");
    return out;
}

bool
same_table(const etl::Table &a, const etl::Table &b)
{
    if (a.num_rows() != b.num_rows() || a.num_cols() != b.num_cols())
        return false;
    for (std::size_t c = 0; c < a.num_cols(); ++c) {
        const etl::Column &x = a.col(c);
        const etl::Column &y = b.col(c);
        if (x.name != y.name || x.type != y.type || x.ints != y.ints ||
            x.doubles != y.doubles || x.codes != y.codes ||
            x.dict.values != y.dict.values)
            return false;
    }
    return true;
}

struct Loader {
    runtime::Scheduler sched{serial_options()};
    runtime::KernelSpec dec_spec = kernels::snappy_decompress_spec();
    runtime::KernelSpec csv_spec = kernels::csv_kernel_spec();
    Spans &spans;

    explicit Loader(Spans &s) : spans(s) {}

    /// One load of `f` into `table`; returns the simulated counters.
    Pin load(const File &f, std::uint64_t req, etl::Table &table,
             Phase &ph)
    {
        Pin pin;
        Spans::Scope load_span(spans, "etl.load", req);

        std::vector<runtime::JobPlan> dec_jobs;
        const auto arena = runtime::ArenaSlice::borrow(f.compressed);
        for (const auto &[off, len] : frame_payloads(f.compressed)) {
            Spans::Scope s(spans, "runtime.make_job", req);
            dec_jobs.push_back(dec_spec.make_job(arena.subslice(off, len)));
        }
        const std::string csv = run_stage(
            dec_jobs, req, ph.kernels["decompress"], pin,
            [](const runtime::JobResult &r, std::string &out) {
                const auto res = kernels::decode_snappy_decompress_result(r);
                out.append(reinterpret_cast<const char *>(res.data.data()),
                           res.data.size());
            });

        std::vector<runtime::JobPlan> csv_jobs;
        {
            Spans::Scope s(spans, "runtime.chunk_jobs", req);
            csv_jobs = runtime::chunk_jobs(
                csv_spec,
                runtime::ArenaSlice::borrow(BytesView(
                    reinterpret_cast<const std::uint8_t *>(csv.data()),
                    csv.size())),
                kCsvChunk, runtime::align_after_delim('\n'));
        }
        const std::string fields = run_stage(
            csv_jobs, req, ph.kernels["parse"], pin,
            [](const runtime::JobResult &r, std::string &out) {
                const auto res = kernels::decode_csv_result(r);
                out.append(res.field_stream.begin(), res.field_stream.end());
            });

        // Deserialize the field stream: '\n' ends a field, 0x1E a row.
        const std::int64_t t0 = now_ns();
        {
            Spans::Scope s(spans, "etl.deserialize", req);
            std::vector<std::string> row;
            std::string field;
            for (const char c : fields) {
                if (c == '\n') {
                    row.push_back(std::move(field));
                    field.clear();
                } else if (c == 0x1E) {
                    Spans::Scope a(spans, "etl.append_raw", req);
                    table.append_raw(row);
                    row.clear();
                } else {
                    field.push_back(c);
                }
            }
        }
        ph.deserialize_s += seconds_between(t0, now_ns());
        ph.rows += table.num_rows();
        pin.bytes = f.csv_bytes;
        return pin;
    }

    template <typename Decode>
    std::string run_stage(const std::vector<runtime::JobPlan> &jobs,
                          std::uint64_t req, KernelTotals &tot, Pin &pin,
                          Decode &&decode)
    {
        runtime::ScheduleReport rep;
        {
            Spans::Scope s(spans, "runtime.scheduler.run", req);
            const std::int64_t t0 = now_ns();
            rep = sched.run(jobs);
            tot.add(rep, seconds_between(t0, now_ns()));
        }
        pin.add(rep);
        std::string out;
        {
            Spans::Scope s(spans, "kernels.decode", req);
            for (const runtime::JobResult &r : rep.jobs)
                decode(r, out);
        }
        sched.recycle(std::move(rep));
        return out;
    }
};

} // namespace

void
run_etl_load(const Options &opt, Spans &spans, JsonWriter &w)
{
    CpuPicker cpus;
    cpus.repin_if_due(0);
    Setup setup(spans, false, [] {
        return Setup::Programs{
            std::make_shared<const Program>(
                kernels::snappy_decompress_program()),
            std::make_shared<const Program>(kernels::csv_parser_program())};
    });
    setup.burst();

    // Inputs and oracle tables (not timed).
    std::vector<File> files(kFiles);
    for (std::size_t i = 0; i < kFiles; ++i) {
        const std::string csv = etl::lineitem_csv(
            double(kRowsPerFile) / double(etl::kRowsPerScale),
            static_cast<unsigned>(opt.seed * kFiles + i));
        files[i].csv_bytes = csv.size();
        files[i].compressed = etl::compress_for_load(csv);
        files[i].oracle = std::make_unique<etl::Table>(
            "lineitem", etl::lineitem_schema());
        etl::load_cpu(files[i].compressed, *files[i].oracle);
    }

    Loader loader(spans);
    Check check;
    Pin pin;
    std::uint64_t req = 0;
    const auto load_checked = [&](std::size_t i, Phase &ph) {
        etl::Table table("lineitem", etl::lineitem_schema());
        const std::int64_t t0 = now_ns();
        const Pin got = loader.load(files[i], ++req, table, ph);
        const std::int64_t t1 = now_ns();
        ++check.attempted;
        if (!same_table(table, *files[i].oracle))
            check.fail("table of file " + std::to_string(i) +
                       " differs from load_cpu's");
        ph.requests.push_back(
            {std::uint32_t(i), seconds_between(t0, t1), files[i].csv_bytes,
             got.jobs});
        return got;
    };

    // Warm-up pass: fills the image caches and records the pin.
    Phase warm;
    for (std::size_t i = 0; i < kFiles; ++i) {
        files[i].pin = load_checked(i, warm);
        pin.add(files[i].pin);
    }

    const std::vector<Phase> phases = run_closed_loop(
        opt, spans, cpus, setup, loader.sched.pool(),
        [&](std::size_t i, Phase &ph) {
            const std::size_t f = i % kFiles;
            if (!load_checked(f, ph).same_counters(files[f].pin)) {
                pin.repeat_identical = false;
                check.fail("simulated counters of file " +
                           std::to_string(f) + " changed between loads");
            }
        });

    write_common(w, setup, pin, cpus, check);
    w.key("phases").begin_array();
    for (const Phase &ph : phases)
        ph.write(w);
    w.end_array();
}

} // namespace udpbench
