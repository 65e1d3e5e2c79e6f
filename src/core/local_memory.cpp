/**
 * @file
 * Local memory and bank arbitration implementation.
 */
#include "local_memory.hpp"

#include "fault.hpp"

namespace udp {

std::string_view
addressing_mode_name(AddressingMode m)
{
    switch (m) {
      case AddressingMode::Local: return "local";
      case AddressingMode::Global: return "global";
      case AddressingMode::Restricted: return "restricted";
    }
    return "<bad>";
}

double
memory_ref_energy_pj(AddressingMode m)
{
    // Fig 11c (CACTI 6.5, 1 MiB, 64 banks): banked local/restricted access
    // costs 4.3 pJ/ref; a global crossbar more than doubles it to 8.8.
    return m == AddressingMode::Global ? 8.8 : 4.3;
}

LocalMemory::LocalMemory(AddressingMode mode)
    : mode_(mode), mem_(kLocalMemBytes, 0)
{
}

void
LocalMemory::clear()
{
    std::fill(mem_.begin(), mem_.end(), 0);
}

void
LocalMemory::translate_fault() const
{
    switch (mode_) {
      case AddressingMode::Local:
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "LocalMemory: local-mode address exceeds bank");
      case AddressingMode::Global:
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "LocalMemory: global address out of range");
      case AddressingMode::Restricted:
        throw UdpFaultError(FaultCode::FetchOutOfRange,
                            "LocalMemory: restricted address out of range");
    }
    throw UdpError("LocalMemory: bad addressing mode");
}

void
LocalMemory::range_fault()
{
    throw UdpFaultError(FaultCode::FetchOutOfRange,
                        "LocalMemory: physical access out of range");
}

void
BankArbiter::begin_cycle()
{
    reads_.fill(0);
    writes_.fill(0);
}

Cycles
BankArbiter::request(unsigned bank, bool is_write)
{
    if (bank >= kNumBanks)
        throw UdpError("BankArbiter: bank id out of range");
    auto &count = is_write ? writes_[bank] : reads_[bank];
    const Cycles stall = count; // nth same-cycle request waits n cycles
    if (count < 255)
        ++count;
    total_stalls_ += stall;
    return stall;
}

} // namespace udp
