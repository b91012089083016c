/**
 * @file
 * DCS-ctrl datapath: the DataPath interface over HDC Library.
 */

#ifndef DCS_BASELINES_DCS_PATH_HH
#define DCS_BASELINES_DCS_PATH_HH

#include "baselines/datapath.hh"
#include "sys/node.hh"

namespace dcs {
namespace baselines {

/** The paper's design: single API call, hardware device control. */
class DcsCtrlPath : public DataPath
{
  public:
    explicit DcsCtrlPath(sys::Node &node) : node(node) {}

    std::string label() const override { return "dcs-ctrl"; }

    void
    sendFile(int file_fd, int sock_fd, std::uint64_t offset,
             std::uint64_t len, ndp::Function fn,
             std::vector<std::uint8_t> aux, host::TracePtr trace,
             PathCallback done) override
    {
        const bool digest = ndp::functionInfo(fn).digestSize > 0;
        node.hdcLib().sendFile(file_fd, sock_fd, offset, len, fn,
                               std::move(aux), digest, trace,
                               [done = std::move(done)](
                                   const hdclib::D2dResult &r) {
                                   done(PathResult{r.digest, r.status});
                               });
    }

    void
    receiveToFile(int sock_fd, int file_fd, std::uint64_t offset,
                  std::uint64_t len, ndp::Function fn,
                  std::vector<std::uint8_t> aux, host::TracePtr trace,
                  PathCallback done) override
    {
        const bool digest = ndp::functionInfo(fn).digestSize > 0;
        node.hdcLib().recvFile(sock_fd, file_fd, offset, len, fn,
                               std::move(aux), digest, trace,
                               [done = std::move(done)](
                                   const hdclib::D2dResult &r) {
                                   done(PathResult{r.digest, r.status});
                               });
    }

  private:
    sys::Node &node;
};

} // namespace baselines
} // namespace dcs

#endif // DCS_BASELINES_DCS_PATH_HH
