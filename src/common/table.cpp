#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.hpp"

namespace rog {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns))
{
    ROG_ASSERT(!columns_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    ROG_ASSERT(cells.size() == columns_.size(),
               "row width ", cells.size(), " != header width ",
               columns_.size(), " in table '", title_, "'");
    rows_.push_back(std::move(cells));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

void
Table::printText(std::ostream &os) const
{
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        width[c] = columns_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    auto rule = [&] {
        os << '+';
        for (auto w : width)
            os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    auto line = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << ' ' << std::setw(static_cast<int>(width[c])) << std::left
               << cells[c] << " |";
        os << '\n';
    };

    os << "== " << title_ << " ==\n";
    rule();
    line(columns_);
    rule();
    for (const auto &row : rows_)
        line(row);
    rule();
}

SeriesSet::SeriesSet(std::string title, std::string x_name,
                     std::string y_name)
    : title_(std::move(title)), x_name_(std::move(x_name)),
      y_name_(std::move(y_name))
{
}

SeriesSet::Series *
SeriesSet::find(const std::string &name)
{
    for (auto &s : series_)
        if (s.name == name)
            return &s;
    return nullptr;
}

void
SeriesSet::add(const std::string &series, double x, double y)
{
    Series *s = find(series);
    if (!s) {
        series_.push_back({series, {}});
        s = &series_.back();
    }
    s->pts.push_back({x, y});
}

void
SeriesSet::printCsv(std::ostream &os) const
{
    os << "# " << title_ << '\n';
    os << "series," << x_name_ << ',' << y_name_ << '\n';
    for (const auto &s : series_)
        for (const auto &p : s.pts)
            os << s.name << ',' << p.x << ',' << p.y << '\n';
}

void
SeriesSet::printSummary(std::ostream &os) const
{
    Table t(title_ + " (sampled)",
            {"series", x_name_ + "[0]", "y[0]", x_name_ + "[1/2]", "y[1/2]",
             x_name_ + "[end]", "y[end]"});
    for (const auto &s : series_) {
        if (s.pts.empty())
            continue;
        const auto &a = s.pts.front();
        const auto &m = s.pts[s.pts.size() / 2];
        const auto &z = s.pts.back();
        t.addRow({s.name, Table::num(a.x, 1), Table::num(a.y),
                  Table::num(m.x, 1), Table::num(m.y), Table::num(z.x, 1),
                  Table::num(z.y)});
    }
    t.printText(os);
}

} // namespace rog
