#include "net/http.hpp"

#include "obs/metrics.hpp"

namespace revelio::net {

namespace {

void append_headers(Bytes& out,
                    const std::map<std::string, std::string>& headers) {
  append_u32be(out, static_cast<std::uint32_t>(headers.size()));
  for (const auto& [k, v] : headers) {
    append_field(out, k);
    append_field(out, v);
  }
}

bool read_headers(FieldReader& r, std::map<std::string, std::string>& headers) {
  const std::uint32_t count = r.u32();
  if (count > 256) return false;
  for (std::uint32_t i = 0; i < count && !r.failed; ++i) {
    std::string k = r.str();
    std::string v = r.str();
    headers[std::move(k)] = std::move(v);
  }
  return !r.failed;
}

}  // namespace

Bytes HttpRequest::serialize() const {
  Bytes out;
  append(out, std::string_view("HTQ1"));
  append_field(out, method);
  append_field(out, path);
  append_field(out, host);
  append_headers(out, headers);
  append_u32be(out, static_cast<std::uint32_t>(body.size()));
  append(out, body);
  return out;
}

Result<HttpRequest> HttpRequest::parse(ByteView data) {
  if (data.size() < 4 || to_string(data.subspan(0, 4)) != "HTQ1") {
    return Error::make("http.bad_request_frame");
  }
  FieldReader r{data, 4};
  HttpRequest req;
  req.method = r.str();
  req.path = r.str();
  req.host = r.str();
  if (!read_headers(r, req.headers)) {
    return Error::make("http.bad_request_frame", "headers");
  }
  const std::uint32_t body_len = r.u32();
  // The declared length must consume exactly the rest of the frame: a
  // short frame is a truncation, a long one is a smuggled second message.
  if (r.failed || body_len != data.size() - r.off) {
    return Error::make("http.bad_request_frame", "body");
  }
  req.body = to_bytes(data.subspan(r.off, body_len));
  return req;
}

Bytes HttpResponse::serialize() const {
  Bytes out;
  append(out, std::string_view("HTS1"));
  append_u32be(out, static_cast<std::uint32_t>(status));
  append_headers(out, headers);
  append_u32be(out, static_cast<std::uint32_t>(body.size()));
  append(out, body);
  return out;
}

Result<HttpResponse> HttpResponse::parse(ByteView data) {
  if (data.size() < 4 || to_string(data.subspan(0, 4)) != "HTS1") {
    return Error::make("http.bad_response_frame");
  }
  FieldReader r{data, 4};
  HttpResponse resp;
  resp.status = static_cast<int>(r.u32());
  if (!read_headers(r, resp.headers)) {
    return Error::make("http.bad_response_frame", "headers");
  }
  const std::uint32_t body_len = r.u32();
  if (r.failed || body_len != data.size() - r.off) {
    return Error::make("http.bad_response_frame", "body");
  }
  resp.body = to_bytes(data.subspan(r.off, body_len));
  return resp;
}

HttpResponse HttpResponse::ok(Bytes body, const std::string& content_type) {
  HttpResponse r;
  r.status = 200;
  r.headers["content-type"] = content_type;
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::not_found() {
  HttpResponse r;
  r.status = 404;
  r.body = to_bytes(std::string_view("not found"));
  return r;
}

HttpResponse HttpResponse::error(int status, const std::string& message) {
  HttpResponse r;
  r.status = status;
  r.body = to_bytes(message);
  return r;
}

void HttpRouter::route(const std::string& method, const std::string& path,
                       HttpHandler handler) {
  if (!path.empty() && path.back() == '*') {
    prefix_[{method, path.substr(0, path.size() - 1)}] = std::move(handler);
  } else {
    exact_[{method, path}] = std::move(handler);
  }
}

HttpResponse HttpRouter::dispatch(const HttpRequest& request) const {
  HttpResponse response = [&]() -> HttpResponse {
    const auto it = exact_.find({request.method, request.path});
    if (it != exact_.end()) return it->second(request);
    // Longest matching prefix wins.
    const HttpHandler* best = nullptr;
    std::size_t best_len = 0;
    for (const auto& [key, handler] : prefix_) {
      const auto& [method, prefix] = key;
      if (method == request.method &&
          request.path.compare(0, prefix.size(), prefix) == 0 &&
          prefix.size() >= best_len) {
        best = &handler;
        best_len = prefix.size();
      }
    }
    if (best != nullptr) return (*best)(request);
    return HttpResponse::not_found();
  }();
  obs::metrics()
      .counter("http.request.count",
               {{"status", std::to_string(response.status)}})
      .inc();
  return response;
}

}  // namespace revelio::net
