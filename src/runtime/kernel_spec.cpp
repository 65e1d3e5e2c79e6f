/**
 * @file
 * KernelSpec implementation: job construction and input chunking.
 */
#include "kernel_spec.hpp"

#include <algorithm>

namespace udp::runtime {

JobPlan
KernelSpec::make_job(ArenaSlice input) const
{
    if (!program)
        throw UdpError("KernelSpec '" + name + "': no program");
    if (max_input_bytes && input.size() > max_input_bytes)
        throw UdpError("KernelSpec '" + name +
                       "': input exceeds the per-job cap");
    JobPlan p;
    p.name = name;
    p.program = program;
    // A borrowed program has no owner to count (borrow_program).
    if (program.use_count() != 0 && sim_backend() == SimBackend::Threaded)
        p.compiled = image.get(program);
    else
        p.resolve_image();
    p.input = std::move(input);
    p.window_bytes = window_bytes;
    p.nfa_mode = nfa_mode;
    p.init_regs = init_regs;
    if (prepare)
        prepare(p);
    return p;
}

SpecImage::SpecImage(const SpecImage &o)
{
    std::lock_guard<std::mutex> lk(o.mu_);
    prog_ = o.prog_;
    image_ = o.image_;
}

SpecImage &
SpecImage::operator=(const SpecImage &o)
{
    if (this != &o) {
        std::scoped_lock lk(mu_, o.mu_);
        prog_ = o.prog_;
        image_ = o.image_;
    }
    return *this;
}

std::shared_ptr<const CompiledProgram>
SpecImage::get(const std::shared_ptr<const Program> &prog) const
{
    std::lock_guard<std::mutex> lk(mu_);
    if (prog_ != prog) {
        image_ = shared_compiled(*prog);
        prog_ = prog;
    }
    return image_;
}

ChunkAlign
align_after_delim(std::uint8_t delim)
{
    return [delim](BytesView data, std::size_t begin, std::size_t end) {
        while (end > begin && data[end - 1] != delim)
            --end;
        return end;
    };
}

std::vector<JobPlan>
chunk_jobs(const KernelSpec &spec, ArenaSlice input, std::size_t chunk_bytes,
           const ChunkAlign &align)
{
    if (chunk_bytes == 0)
        throw UdpError("chunk_jobs: zero chunk size");
    if (spec.max_input_bytes)
        chunk_bytes = std::min(chunk_bytes, spec.max_input_bytes);

    std::vector<JobPlan> jobs;
    std::size_t off = 0;
    while (off < input.size()) {
        std::size_t end = std::min(off + chunk_bytes, input.size());
        if (align && end < input.size()) {
            end = align(input.view(), off, end);
            if (end <= off)
                throw UdpError("chunk_jobs: no legal split point in '" +
                               spec.name + "' chunk");
        }
        // A chunk is a sub-slice of the shared arena, not a copy.
        jobs.push_back(spec.make_job(input.subslice(off, end - off)));
        off = end;
    }
    return jobs;
}

std::shared_ptr<const Program>
borrow_program(const Program &prog)
{
    return std::shared_ptr<const Program>(std::shared_ptr<const Program>{},
                                          &prog);
}

} // namespace udp::runtime
