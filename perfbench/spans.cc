#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "perfbench.hh"

namespace perfbench
{

void
Report::set(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    for (Metric &m : metrics)
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    metrics.push_back({name, value, unit});
}

void
Report::fail(const std::string &what, std::uint64_t n)
{
    failed += n;
    if (errors.size() < 20)
        errors.push_back(what);
}

int
SpanLog::open(const char *name, int frame)
{
    int parent = stack.empty() ? -1 : stack.back();
    spans.push_back({name, secondsSince(origin), 0.0, parent, frame});
    int id = static_cast<int>(spans.size()) - 1;
    stack.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    // Scopes nest, so the span closing is always the innermost open one.
    spans[static_cast<std::size_t>(id)].end = secondsSince(origin);
    stack.pop_back();
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::vector<double> child(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[spans[i].name] += spans[i].end - spans[i].start - child[i];
    return self;
}

std::map<std::string, std::size_t>
SpanLog::counts() const
{
    std::map<std::string, std::size_t> n;
    for (const Span &s : spans)
        n[s.name] += 1;
    return n;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "id\tparent\tframe\tname\tstart_us\tend_us\n";
    char buf[64];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf, "\t%.3f\t%.3f\n", s.start * 1e6,
                      s.end * 1e6);
        os << i << '\t' << s.parent << '\t' << s.frame << '\t' << s.name
           << buf;
    }
    return static_cast<bool>(os);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0.0;
}

chopin::BenchmarkProfile
seededProfile(const std::string &bench, int scale, std::uint64_t seed)
{
    chopin::BenchmarkProfile p =
        chopin::scaleProfile(chopin::benchmarkProfile(bench), scale);
    p.seed = chopin::Fingerprinter().u64(p.seed).u64(seed).value();
    return p;
}

} // namespace perfbench
