#include "serve/protocol.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"

namespace tango::serve {

namespace {

using json::Reader;

bool
readAll(int fd, void *buf, size_t n)
{
    char *p = static_cast<char *>(buf);
    while (n) {
        const ssize_t got = ::read(fd, p, n);
        if (got == 0)
            return false;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += got;
        n -= static_cast<size_t>(got);
    }
    return true;
}

bool
writeAll(int fd, const void *buf, size_t n)
{
    const char *p = static_cast<const char *>(buf);
    while (n) {
        const ssize_t put = ::write(fd, p, n);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += put;
        n -= static_cast<size_t>(put);
    }
    return true;
}

void
setErr(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
}

} // namespace

FrameStatus
readFrame(int fd, std::string &payload, uint32_t maxBytes)
{
    uint8_t hdr[4];
    // Distinguish a clean close (EOF before any header byte) from a
    // truncated frame: the former is how clients hang up.
    const ssize_t first = ::read(fd, hdr, 1);
    if (first == 0)
        return FrameStatus::Eof;
    if (first < 0)
        return errno == EINTR ? readFrame(fd, payload, maxBytes)
                              : FrameStatus::Error;
    if (!readAll(fd, hdr + 1, 3))
        return FrameStatus::Error;
    const uint32_t len = (uint32_t(hdr[0]) << 24) | (uint32_t(hdr[1]) << 16) |
                         (uint32_t(hdr[2]) << 8) | uint32_t(hdr[3]);
    if (len > maxBytes)
        return FrameStatus::Error;
    payload.resize(len);
    if (len && !readAll(fd, payload.data(), len))
        return FrameStatus::Error;
    return FrameStatus::Ok;
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    const uint8_t hdr[4] = {uint8_t(len >> 24), uint8_t(len >> 16),
                            uint8_t(len >> 8), uint8_t(len)};
    return writeAll(fd, hdr, 4) && writeAll(fd, payload.data(), len);
}

// ------------------------------------------------------------- requests

std::string
makeRunRequest(uint64_t id, const rt::JobSpec &job)
{
    std::string out = "{\"type\":\"run\",\"id\":";
    json::appendU64(out, id);
    out += ",\"job\":";
    out += job.toJson();
    out += '}';
    return out;
}

std::string
makeStatsRequest()
{
    return "{\"type\":\"stats\"}";
}

std::string
makeMetricsRequest()
{
    return "{\"type\":\"metrics\"}";
}

std::string
makePingRequest()
{
    return "{\"type\":\"ping\"}";
}

std::string
makeShutdownRequest()
{
    return "{\"type\":\"shutdown\"}";
}

bool
parseRequest(const std::string &text, Request &out, std::string *err)
{
    Reader::Value v;
    try {
        v = Reader(text).parse();
    } catch (const std::exception &e) {
        setErr(err, e.what());
        return false;
    }
    if (v.kind != Reader::Value::Kind::Obj) {
        setErr(err, "request must be a JSON object");
        return false;
    }
    const std::string type = v.strOr("type");
    Request req;
    if (type == "run") {
        req.type = Request::Type::Run;
        req.id = v.u64Or("id", 0);
        const Reader::Value *job = v.find("job");
        if (!job || job->kind != Reader::Value::Kind::Obj) {
            setErr(err, "run request is missing its 'job' object");
            return false;
        }
        // The one canonical JobSpec parser, so run requests and local
        // tools accept exactly the same specs.
        if (!rt::JobSpec::fromValue(*job, req.job, err))
            return false;
    } else if (type == "stats") {
        req.type = Request::Type::Stats;
    } else if (type == "metrics") {
        req.type = Request::Type::Metrics;
    } else if (type == "ping") {
        req.type = Request::Type::Ping;
    } else if (type == "shutdown") {
        req.type = Request::Type::Shutdown;
    } else {
        setErr(err, "unknown request type '" + type + "'");
        return false;
    }
    out = std::move(req);
    return true;
}

// ------------------------------------------------------------ responses

std::string
makeResultResponse(uint64_t id, const rt::JobResult &r,
                   const std::string *runJson)
{
    // A result response IS a JobResult object with the envelope fields
    // in front, so clients parse one shape.
    std::string out;
    out.reserve(128 + (runJson ? runJson->size() : 0));
    json::ObjWriter o(out);
    o.str("type", "result");
    o.u64("id", id);
    r.writeFields(o, runJson);
    o.close();
    return out;
}

bool
parseResultResponse(const std::string &text, uint64_t &id,
                    rt::JobResult &out, std::string *err)
{
    // One pass over the text: the envelope ("type", "id") and the
    // result's small fields land in `fields`, the NetRun is decoded in
    // place (rt::readNetRun), with no Value tree for its statistics.
    Reader::Value fields;
    rt::JobResult res;
    try {
        Reader p(text);
        res = rt::JobResult::read(p, fields);
        p.end();
    } catch (const std::exception &e) {
        setErr(err, e.what());
        return false;
    }
    if (fields.strOr("type") != "result") {
        setErr(err, "expected a 'result' response");
        return false;
    }
    out = std::move(res);
    id = fields.u64Or("id", 0);
    return true;
}

// --------------------------------------------------------------- client

bool
Client::connect(const std::string &host, uint16_t port, std::string *err)
{
    if (fd_ >= 0) {
        setErr(err, "already connected");
        return false;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        setErr(err, std::string("socket: ") + std::strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        setErr(err, "bad address '" + host + "' (IPv4 dotted quad only)");
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        setErr(err, std::string("connect: ") + std::strerror(errno));
        ::close(fd);
        return false;
    }
    // One small request frame per round trip: don't let Nagle batch it.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fd_ = fd;
    return true;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::roundTrip(const std::string &request, std::string &response,
                  std::string *err)
{
    if (fd_ < 0) {
        setErr(err, "not connected");
        return false;
    }
    if (!writeFrame(fd_, request)) {
        setErr(err, "send failed");
        return false;
    }
    switch (readFrame(fd_, response)) {
    case FrameStatus::Ok:
        return true;
    case FrameStatus::Eof:
        setErr(err, "server closed the connection");
        return false;
    default:
        setErr(err, "receive failed");
        return false;
    }
}

bool
Client::run(const rt::JobSpec &job, rt::JobResult &res, std::string *err)
{
    std::string response;
    const uint64_t id = nextId_++;
    if (!roundTrip(makeRunRequest(id, job), response, err))
        return false;
    uint64_t gotId = 0;
    if (!parseResultResponse(response, gotId, res, err))
        return false;
    if (gotId != id) {
        setErr(err, "response id mismatch");
        return false;
    }
    return true;
}

bool
Client::stats(std::string &json, std::string *err)
{
    return roundTrip(makeStatsRequest(), json, err);
}

bool
Client::metrics(std::string &text, std::string *err)
{
    return roundTrip(makeMetricsRequest(), text, err);
}

bool
Client::ping(std::string *err)
{
    std::string response;
    return roundTrip(makePingRequest(), response, err);
}

bool
Client::shutdown(std::string *err)
{
    std::string response;
    return roundTrip(makeShutdownRequest(), response, err);
}

} // namespace tango::serve
