/**
 * @file
 * The tango-serve wire protocol: length-prefixed JSON frames over TCP.
 *
 * Every message is one frame: a 4-byte big-endian payload length
 * followed by that many bytes of UTF-8 JSON.  Requests:
 *
 *   {"type":"run","id":N,"job":{JobSpec}}   run one simulation job
 *   {"type":"stats"}                        server metrics snapshot
 *   {"type":"metrics"}                      Prometheus scrape
 *   {"type":"ping"}                         liveness probe
 *   {"type":"shutdown"}                     begin graceful drain
 *
 * The run response is a JobResult object extended with "type":"result"
 * and the request's "id"; rejections (queue full, draining, invalid
 * spec) arrive as ok=false results with the reason in "error", so a
 * client needs exactly one response shape.  The metrics response is
 * the one deliberate exception to JSON payloads: its frame carries the
 * process-wide metrics registry rendered as Prometheus text exposition
 * (metrics/metrics.hh), so tango-top and any scraper-side tooling read
 * the standard format unmodified.  Connections are
 * request/response sequential: a client sends one frame and reads one
 * frame back (concurrency comes from opening several connections, which
 * is also how tango-load generates load).
 */

#ifndef TANGO_SERVE_PROTOCOL_HH
#define TANGO_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "runtime/job.hh"

namespace tango::serve {

/** Frame payload hard cap (a full VGG NetRun is ~1 MB; 64 MB is a
 *  corrupt length prefix, not a job). */
constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameStatus
{
    Ok,      ///< one complete frame read
    Eof,     ///< peer closed cleanly at a frame boundary
    Error    ///< short read, oversized length, or socket error
};

/** Read one frame from @p fd (blocking). */
FrameStatus readFrame(int fd, std::string &payload,
                      uint32_t maxBytes = kMaxFrameBytes);

/** Write one frame to @p fd (blocking).  @return false on error. */
bool writeFrame(int fd, const std::string &payload);

// ------------------------------------------------------------- requests

struct Request
{
    enum class Type { Run, Stats, Metrics, Ping, Shutdown } type =
        Type::Ping;
    uint64_t id = 0;     ///< run requests only; echoed in the response
    rt::JobSpec job;     ///< run requests only (parsed, NOT validated)
};

std::string makeRunRequest(uint64_t id, const rt::JobSpec &job);
std::string makeStatsRequest();
std::string makeMetricsRequest();
std::string makePingRequest();
std::string makeShutdownRequest();

/** Parse any request frame.  @return false (out untouched) on malformed
 *  JSON or an unknown "type", with a reason in @p err if given. */
bool parseRequest(const std::string &text, Request &out,
                  std::string *err = nullptr);

// ------------------------------------------------------------ responses

/** A JobResult as a "result" response frame for request @p id: the
 *  envelope ("type", "id") followed by the JobResult's fields.  Given
 *  @p runJson (rt::serializeNetRun(r.run), serialized once by the
 *  caller), its bytes become the "run" field and r.run is not read;
 *  the frame is byte-identical either way. */
std::string makeResultResponse(uint64_t id, const rt::JobResult &r,
                               const std::string *runJson = nullptr);

/** Parse a "result" response; @p id receives the echoed request id. */
bool parseResultResponse(const std::string &text, uint64_t &id,
                         rt::JobResult &out, std::string *err = nullptr);

// --------------------------------------------------------------- client

/**
 * A blocking protocol client over one TCP connection.  Used by
 * tango-load, the CI drain check and tests; small enough to embed
 * anywhere a tool wants to talk to a running daemon.
 */
class Client
{
  public:
    Client() = default;
    ~Client() { close(); }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept
        : fd_(other.fd_), nextId_(other.nextId_)
    {
        other.fd_ = -1;
    }

    /** Connect to @p host:@p port.  @return false with @p err set on
     *  failure; a connected client must close() before reconnecting. */
    bool connect(const std::string &host, uint16_t port,
                 std::string *err = nullptr);
    void close();
    bool connected() const { return fd_ >= 0; }

    /** Submit one job and wait for its result.  @return false on a
     *  transport/protocol failure (res untouched); a server-side
     *  rejection is a successful round trip with res.ok == false. */
    bool run(const rt::JobSpec &job, rt::JobResult &res,
             std::string *err = nullptr);

    /** Fetch the server metrics snapshot as raw JSON. */
    bool stats(std::string &json, std::string *err = nullptr);

    /** Fetch the process-wide metrics registry as Prometheus text
     *  exposition (parse with metrics::Scrape if needed). */
    bool metrics(std::string &text, std::string *err = nullptr);

    bool ping(std::string *err = nullptr);

    /** Ask the server to drain and exit (acknowledged before it does). */
    bool shutdown(std::string *err = nullptr);

  private:
    bool roundTrip(const std::string &request, std::string &response,
                   std::string *err);

    int fd_ = -1;
    uint64_t nextId_ = 1;
};

} // namespace tango::serve

#endif // TANGO_SERVE_PROTOCOL_HH
